(* Per-path data statistics: the moral equivalent of DB2's RUNSTATS output
   for XML columns.

   For every distinct rooted label path occurring in a table (a "dataguide"
   entry) we keep node counts, document counts, distinct-value estimates,
   value sizes and the numeric value range.  Virtual index statistics are
   derived from these, never from physical indexes. *)

type path_info = {
  path : string list;
  path_key : string;
  mutable node_count : int;
  mutable doc_count : int;
  mutable distinct_values : int;
  mutable total_value_bytes : int;
  mutable numeric_count : int;
  mutable distinct_numeric : int;
  mutable min_num : float;
  mutable max_num : float;
  mutable histogram : Histogram.t option;
}

(* Trie over the interned label sequences of the dataguide.  Terminals store
   the path's index into [infos] (the [ordered] list as an array), so a trie
   walk can report matches in exactly the order the linear filter over
   [ordered] would: collect indices, sort ints ascending, map back.  Children
   are plain arrays frozen after collection — the trie is immutable once the
   stats object is published. *)
type trie = {
  terminal : int;            (* index into [infos]; -1 when no path ends here *)
  child_labels : int array;  (* interned label ids, parallel to [child_nodes] *)
  child_nodes : trie array;
}

type t = {
  table : string;
  generation : int;
  doc_count : int;
  total_elements : int;
  total_bytes : int;
  ordered : path_info list; (* deterministic order: by path key *)
  infos : path_info array;  (* [ordered] as an array (same order) *)
  trie : trie;
  matching_memo : path_info list Xia_xpath.Interner.Dense.t;
      (* pattern id -> covered paths *)
}

let path_key path = String.concat "/" path

(* Cap on the exact distinct-value sets kept during collection; beyond it we
   keep counting nodes but freeze the distinct estimate (matching the sampled
   nature of real RUNSTATS). *)
let distinct_cap = 200_000

(* Reservoir size for the numeric sample feeding each path's histogram. *)
let sample_cap = 4096

(* Distinct-value sets.  Float equality is [Float.equal] and hashing is
   [Hashtbl.hash], which both identify every [nan] and equate [-0.0] with
   [0.0], as polymorphic equality does. *)
module String_set = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

module Float_set = Hashtbl.Make (struct
  type t = float

  let equal = Float.equal
  let hash = Hashtbl.hash
end)

type collector_entry = {
  info : path_info;
  values : unit String_set.t;
  numerics : unit Float_set.t;
  mutable sample : float list;  (* reservoir of numeric values *)
  mutable sample_size : int;
  mutable last_doc : int;
  rng : Random.State.t;
}

(* Build the label trie over every dataguide path.  Single-threaded (runs
   inside [collect]); the mutable builder nodes are frozen into plain arrays
   before the stats object is published. *)
type trie_builder = {
  mutable b_terminal : int;
  b_children : (int, trie_builder) Hashtbl.t;
}

let build_trie infos =
  let fresh () = { b_terminal = -1; b_children = Hashtbl.create 4 } in
  let root = fresh () in
  Array.iteri
    (fun index info ->
      let node =
        List.fold_left
          (fun node label ->
            let l = Xia_xpath.Interner.label label in
            match Hashtbl.find_opt node.b_children l with
            | Some child -> child
            | None ->
                let child = fresh () in
                Hashtbl.add node.b_children l child;
                child)
          root info.path
      in
      node.b_terminal <- index)
    infos;
  let rec freeze b =
    let kids = Hashtbl.fold (fun l c acc -> (l, c) :: acc) b.b_children [] in
    let kids = List.sort (fun (a, _) (b, _) -> compare a b) kids in
    {
      terminal = b.b_terminal;
      child_labels = Array.of_list (List.map fst kids);
      child_nodes = Array.of_list (List.map (fun (_, c) -> freeze c) kids);
    }
  in
  freeze root

let new_entry path key =
  {
    info =
      {
        path;
        path_key = key;
        node_count = 0;
        doc_count = 0;
        distinct_values = 0;
        total_value_bytes = 0;
        numeric_count = 0;
        distinct_numeric = 0;
        min_num = infinity;
        max_num = neg_infinity;
        histogram = None;
      };
    values = String_set.create 64;
    numerics = Float_set.create 16;
    sample = [];
    sample_size = 0;
    last_doc = -1;
    rng = Random.State.make [| Hashtbl.hash key |];
  }

let touch doc_id entry value =
  let info = entry.info in
  info.node_count <- info.node_count + 1;
  if entry.last_doc <> doc_id then begin
    entry.last_doc <- doc_id;
    info.doc_count <- info.doc_count + 1
  end;
  info.total_value_bytes <- info.total_value_bytes + String.length value;
  if String_set.length entry.values < distinct_cap && not (String_set.mem entry.values value)
  then String_set.add entry.values value ();
  match float_of_string_opt (String.trim value) with
  | None -> ()
  | Some v ->
      info.numeric_count <- info.numeric_count + 1;
      if info.min_num > v then info.min_num <- v;
      if info.max_num < v then info.max_num <- v;
      if Float_set.length entry.numerics < distinct_cap && not (Float_set.mem entry.numerics v)
      then Float_set.add entry.numerics v ();
      (* Bernoulli reservoir: keep every value up to the cap, then thin. *)
      if entry.sample_size < sample_cap then begin
        entry.sample <- v :: entry.sample;
        entry.sample_size <- entry.sample_size + 1
      end
      else if Random.State.int entry.rng info.node_count < sample_cap then
        entry.sample <- (match entry.sample with _ :: rest -> v :: rest | [] -> [ v ])

(* One guided walk per document: a node's guide value is its path's
   collector entry, created on the path's first sight, so no per-node path
   or key is built.  Entries are still keyed by path key here, once per
   guide node, so labels that spell the same key share one entry. *)
let collect store =
  let acc : (string, collector_entry) Hashtbl.t = Hashtbl.create 256 in
  let label parent l =
    let path = parent.info.path @ [ l ] in
    let key = path_key path in
    match Hashtbl.find_opt acc key with
    | Some e -> e
    | None ->
        let e = new_entry path key in
        Hashtbl.add acc key e;
        e
  in
  let guide =
    Xia_xml.Packed.guide (Doc_store.labels store) ~root:(new_entry [] "") ~label
      ~dead:(fun _ -> false)
  in
  Doc_store.iter
    (fun doc_id doc ->
      Xia_xml.Packed.walk guide (fun _id entry value -> touch doc_id entry value) doc)
    store;
  let finish _ entry infos =
    entry.info.distinct_values <- max 1 (String_set.length entry.values);
    entry.info.distinct_numeric <- Float_set.length entry.numerics;
    entry.info.histogram <- Histogram.create entry.sample;
    entry.info :: infos
  in
  let ordered =
    List.sort
      (fun a b -> String.compare a.path_key b.path_key)
      (Hashtbl.fold finish acc [])
  in
  let infos = Array.of_list ordered in
  {
    table = Doc_store.name store;
    generation = Doc_store.generation store;
    doc_count = Doc_store.doc_count store;
    total_elements = Doc_store.total_elements store;
    total_bytes = Doc_store.total_bytes store;
    ordered;
    infos;
    trie = build_trie infos;
    matching_memo = Xia_xpath.Interner.Dense.create ();
  }

(* Walks the trie; a label never interned is on no path. *)
let find t path =
  let rec go node = function
    | [] -> if node.terminal >= 0 then Some t.infos.(node.terminal) else None
    | label :: rest -> (
        match Xia_xpath.Interner.find Xia_xpath.Interner.labels label with
        | None -> None
        | Some id -> (
            match Array.find_index (Int.equal id) node.child_labels with
            | None -> None
            | Some i -> go node.child_nodes.(i) rest))
  in
  go t.trie path

let iter f t = List.iter f t.ordered

let fold f t init = List.fold_left (fun acc info -> f acc info) init t.ordered

let path_count t = Array.length t.infos

let all_paths t = List.map (fun info -> info.path) t.ordered

(* Paths covered by a linear index pattern, via a single trie walk: the NFA
   state set advances once per shared label prefix instead of once per path,
   and a dead state set prunes the whole subtree.  Each label's match mask is
   computed once per walk ([mask_memo]); matched terminal indices are sorted
   so the result is in [ordered] order. *)
let matching_walk t nfa =
  let desc = Xia_xpath.Nfa.desc_mask nfa in
  let mask_memo : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let mask_of label_id =
    match Hashtbl.find_opt mask_memo label_id with
    | Some m -> m
    | None ->
        let m = Xia_xpath.Nfa.match_mask nfa (Xia_xpath.Interner.label_value label_id) in
        Hashtbl.add mask_memo label_id m;
        m
  in
  let matched = ref [] in
  let rec walk node set =
    if node.terminal >= 0 && Xia_xpath.Nfa.accepting nfa set then
      matched := node.terminal :: !matched;
    Array.iteri
      (fun i label_id ->
        let set' = Xia_xpath.Nfa.advance_masks ~desc ~matches:(mask_of label_id) set in
        if set' <> 0 then walk node.child_nodes.(i) set')
      node.child_labels
  in
  walk t.trie Xia_xpath.Nfa.initial;
  List.map
    (fun i -> t.infos.(i))
    (List.sort compare !matched)

(* Memoized per interned pattern id, in a table indexed by the id.  The
   table lives in the stats object itself — stats are immutable once
   collected and rebuilt wholesale by RUNSTATS, so no table/generation key
   component is needed. *)
let walk_id t pid = matching_walk t (Xia_xpath.Pattern.nfa_of_id pid)

let matching_id t pid = Xia_xpath.Interner.Dense.find_or_compute t.matching_memo pid walk_id t

let matching t pattern = matching_id t (Xia_xpath.Pattern.id pattern)

let avg_value_bytes info =
  if info.node_count = 0 then 0.0
  else float_of_int info.total_value_bytes /. float_of_int info.node_count
