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

(* [number] is the numeric coercion's cell. *)
let key_in number dtype value =
  match dtype with
  | Index_def.Dstring -> Some (Kstring value)
  | Index_def.Ddouble ->
      if Xia_xpath.Ast.read_number number value then Some (Kdouble number.number) else None

let key_of_value dtype value = key_in { Xia_xpath.Ast.number = 0.0 } dtype value

(* The guided walk's value for a path is the pattern's NFA state set after
   reading it, computed once per distinct path of the walk.  Nodes whose set
   accepts are indexed.  A state set that has died stays empty on every
   extension, so the walk skips that subtree without losing an entry.  The
   numeric coercion's cell comes along, one per build. *)
type walker = {
  nfa : Xia_xpath.Nfa.t;
  guide : int Xia_xml.Packed.guide;
  number : Xia_xpath.Ast.number;
}

let guide labels (def : Index_def.t) =
  let nfa = Xia_xpath.Pattern.nfa_of_id def.pid in
  let desc = Xia_xpath.Nfa.desc_mask nfa in
  let label set l =
    Xia_xpath.Nfa.advance_masks ~desc ~matches:(Xia_xpath.Nfa.match_mask nfa l) set
  in
  {
    nfa;
    guide = Xia_xml.Packed.guide labels ~root:Xia_xpath.Nfa.initial ~label ~dead:(Int.equal 0);
    number = { Xia_xpath.Ast.number = 0.0 };
  }

let key_size = function Kstring s -> String.length s | Kdouble _ -> 8

let compare_entry a b =
  match compare_key a.key b.key with
  | 0 -> (
      match compare a.doc b.doc with
      | 0 -> Xia_xml.Types.compare_node_id a.node b.node
      | c -> c)
  | c -> c

(* The sorted entries of the documents [iter] reports: build passes the
   whole table, refresh the touched documents. *)
let sorted_entries store (def : Index_def.t) iter =
  let w = guide (Doc_store.labels store) def in
  let acc = ref [] in
  iter (fun doc_id doc ->
      Xia_xml.Packed.walk w.guide
        (fun pre attr set value ->
          if Xia_xpath.Nfa.accepting w.nfa set then
            match key_in w.number def.dtype value with
            | None -> ()
            | Some key ->
                let node = { Xia_xml.Types.pre; attr = (if attr < 0 then None else Some attr) } in
                acc := { key; doc = doc_id; node } :: !acc)
        doc);
  let entries = Array.of_list !acc in
  (* A merge sort: [Array.sort]'s heap sort raises an exception per sift.
     The order is total, so any sort gives these entries. *)
  Array.stable_sort compare_entry entries;
  entries

let make def ~generation entries =
  let key_bytes = Array.fold_left (fun n e -> n + key_size e.key) 0 entries in
  { def; entries; built_generation = generation; key_bytes }

let build store def =
  make def ~generation:(Doc_store.generation store)
    (sorted_entries store def (fun f -> Doc_store.iter f store))

let marked mask id = id < Bytes.length mask && Bytes.get mask id <> '\000'

(* Merge the entries of the documents not marked in [touched] with
   [fresh], the touched documents' new entries: both runs are sorted, and no
   entry of one equals an entry of the other (their documents differ), so
   the result is what one sort of all of them gives. *)
let merge old touched fresh =
  let kept = Array.fold_left (fun n e -> if marked touched e.doc then n else n + 1) 0 old in
  if kept = 0 then fresh
  else begin
    let out = Array.make (kept + Array.length fresh) old.(0) in
    let i = ref 0 and j = ref 0 in
    for o = 0 to Array.length out - 1 do
      while !i < Array.length old && marked touched old.(!i).doc do incr i done;
      let from_old =
        !j = Array.length fresh || (!i < Array.length old && compare_entry old.(!i) fresh.(!j) < 0)
      in
      out.(o) <- (if from_old then old.(!i) else fresh.(!j));
      if from_old then incr i else incr j
    done;
    out
  end

(* Past one pass over the table and one over the entries, a refresh costs
   O(k log k) for k new entries.  [shared] is the last build generation's
   mask of written documents, valid while the store's generation holds. *)
let refresh store =
  let shared = ref (-1, -1, Bytes.empty) in
  fun pi ->
    let generation = Doc_store.generation store in
    if pi.built_generation = generation then pi
    else begin
      let touched =
        match !shared with
        | now, built, touched when now = generation && built = pi.built_generation -> touched
        | _ ->
            let ids = Doc_store.touched_since store pi.built_generation in
            let touched = Bytes.make (1 + List.fold_left max (-1) ids) '\000' in
            List.iter (fun id -> Bytes.set touched id '\001') ids;
            shared := (generation, pi.built_generation, touched);
            touched
      in
      let fresh =
        sorted_entries store pi.def (fun f ->
            Doc_store.iter (fun id doc -> if marked touched id then f id doc) store)
      in
      make pi.def ~generation (merge pi.entries touched fresh)
    end

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

(* Actual size under the same layout model used for virtual indexes, so that
   real and virtual configurations are measured with one yardstick. *)
let size_bytes t =
  let entries = Array.length t.entries in
  if entries = 0 then Cost_params.page_size
  else
    let avg_key_bytes = float_of_int t.key_bytes /. float_of_int entries in
    let size, _, _ = Index_stats.btree_shape ~entries ~avg_key_bytes in
    size
