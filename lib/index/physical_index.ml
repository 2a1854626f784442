(* Materialized partial XML index.

   Entries are (key, doc, node) triples for every node covered by the index
   pattern (and, for Ddouble, whose value parses as a number), kept sorted by
   key for binary-search lookups — a flat stand-in for a B-tree with the same
   asymptotics. *)

module Doc_store = Xia_storage.Doc_store
module Cost_params = Xia_storage.Cost_params

type key =
  | Kstring of string
  | Kdouble of float

let compare_key a b =
  match a, b with
  | Kstring x, Kstring y -> String.compare x y
  | Kdouble x, Kdouble y -> Float.compare x y
  | Kstring _, Kdouble _ -> 1
  | Kdouble _, Kstring _ -> -1

type entry = {
  key : key;
  doc : Doc_store.doc_id;
  node : Xia_xml.Types.node_id;
}

type t = {
  def : Index_def.t;
  entries : entry array;
  built_generation : int;
  key_bytes : int;
}

let def t = t.def
let entry_count t = Array.length t.entries
let built_generation t = t.built_generation

let key_of_value dtype value =
  match dtype with
  | Index_def.Dstring -> Some (Kstring value)
  | Index_def.Ddouble -> (
      match float_of_string_opt (String.trim value) with
      | Some v -> Some (Kdouble v)
      | None -> None)

(* The guided walk's value for a path is the pattern's NFA state set after
   reading it, computed once per distinct path of the walk.  Nodes whose set
   accepts are indexed.  A state set that has died stays empty on every
   extension, so the walk skips that subtree without losing an entry. *)
let guide labels (def : Index_def.t) =
  let nfa = Xia_xpath.Pattern.nfa_of_id def.pid in
  let desc = Xia_xpath.Nfa.desc_mask nfa in
  let label set l =
    Xia_xpath.Nfa.advance_masks ~desc ~matches:(Xia_xpath.Nfa.match_mask nfa l) set
  in
  (nfa, Xia_xml.Packed.guide labels ~root:Xia_xpath.Nfa.initial ~label ~dead:(Int.equal 0))

let key_size = function Kstring s -> String.length s | Kdouble _ -> 8

let entries_of_doc (def : Index_def.t) (nfa, guide) doc_id doc =
  let acc = ref [] in
  Xia_xml.Packed.walk guide
    (fun node set value ->
      if Xia_xpath.Nfa.accepting nfa set then
        match key_of_value def.dtype value with
        | None -> ()
        | Some key -> acc := { key; doc = doc_id; node } :: !acc)
    doc;
  !acc

let compare_entry a b =
  match compare_key a.key b.key with
  | 0 -> (
      match compare a.doc b.doc with
      | 0 -> Xia_xml.Types.compare_node_id a.node b.node
      | c -> c)
  | c -> c

let of_entry_list def ~generation acc =
  let entries = Array.of_list acc in
  Array.sort compare_entry entries;
  let key_bytes = Array.fold_left (fun n e -> n + key_size e.key) 0 entries in
  { def; entries; built_generation = generation; key_bytes }

let build store (def : Index_def.t) =
  let guide = guide (Doc_store.labels store) def in
  let acc = ref [] in
  Doc_store.iter
    (fun doc_id doc -> acc := List.rev_append (entries_of_doc def guide doc_id doc) !acc)
    store;
  of_entry_list def ~generation:(Doc_store.generation store) !acc

(* Incremental maintenance: fold a change list into the index without
   rescanning the whole table.  Every touched document's old entries are
   dropped; documents whose final state is present contribute fresh ones. *)
let apply_changes pi ~generation (changes : Doc_store.change list) =
  let net : (Doc_store.doc_id, Xia_xml.Packed.t option) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (c : Doc_store.change) ->
      match c.kind with
      | `Insert -> Hashtbl.replace net c.doc_id (Some c.doc)
      | `Delete -> Hashtbl.replace net c.doc_id None)
    changes;
  let kept =
    Array.to_list pi.entries
    |> List.filter (fun e -> not (Hashtbl.mem net e.doc))
  in
  let added =
    match changes with
    | [] -> []
    | first :: _ ->
        (* Every change carries a document of the one store, so one guide
           over its label table serves them all. *)
        let guide = guide first.doc.labels pi.def in
        (* Hash iteration order is fine here: [of_entry_list] sorts the
           combined entry list under a total order before anything reads
           it. *)
        (Hashtbl.fold
           (fun doc_id doc acc ->
             match doc with
             | None -> acc
             | Some doc -> List.rev_append (entries_of_doc pi.def guide doc_id doc) acc)
           net [] [@lint.allow "N001"])
  in
  of_entry_list pi.def ~generation (List.rev_append added kept)

(* First position with key >= k (lower bound). *)
let lower_bound t k =
  let lo = ref 0 and hi = ref (Array.length t.entries) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if compare_key t.entries.(mid).key k < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* First position with key > k (upper bound). *)
let upper_bound t k =
  let lo = ref 0 and hi = ref (Array.length t.entries) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if compare_key t.entries.(mid).key k <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let slice t lo hi =
  let rec collect i acc = if i < lo then acc else collect (i - 1) (t.entries.(i) :: acc) in
  if hi <= lo then [] else collect (hi - 1) []

let lookup_eq t k = slice t (lower_bound t k) (upper_bound t k)

type bound =
  | Unbounded
  | Inclusive of key
  | Exclusive of key

let lookup_range t ~lo ~hi =
  let start =
    match lo with
    | Unbounded -> 0
    | Inclusive k -> lower_bound t k
    | Exclusive k -> upper_bound t k
  in
  let stop =
    match hi with
    | Unbounded -> Array.length t.entries
    | Inclusive k -> upper_bound t k
    | Exclusive k -> lower_bound t k
  in
  slice t start stop

let lookup_ne t k =
  slice t 0 (lower_bound t k) @ slice t (upper_bound t k) (Array.length t.entries)

let all t = slice t 0 (Array.length t.entries)

let iter f t = Array.iter f t.entries

(* Actual size under the same layout model used for virtual indexes, so that
   real and virtual configurations are measured with one yardstick. *)
let size_bytes t =
  let entries = Array.length t.entries in
  if entries = 0 then Cost_params.page_size
  else
    let avg_key_bytes = float_of_int t.key_bytes /. float_of_int entries in
    let size, _, _ = Index_stats.btree_shape ~entries ~avg_key_bytes in
    size

let distinct_doc_count entries =
  let seen = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace seen e.doc ()) entries;
  Hashtbl.length seen
