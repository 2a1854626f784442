(* Per-path data statistics: the moral equivalent of DB2's RUNSTATS output
   for XML columns.

   For every distinct rooted label path occurring in a table (a "dataguide"
   entry) we keep node counts, document counts, distinct-value estimates,
   value sizes and the numeric value range.  Virtual index statistics are
   derived from these, never from physical indexes.

   The entries are the nodes of the dataguide trie itself: each holds its
   parent, its interned label and its children, so a path costs one node
   whatever its depth, and its label list or key is rebuilt on demand. *)

type path_info = {
  parent : path_info option;
  label : int;
  mutable index : int;
  mutable children : path_info array;
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

type t = {
  table : string;
  generation : int;
  doc_count : int;
  total_elements : int;
  total_bytes : int;
  roots : path_info array;
  infos : path_info array;
  matching_memo : path_info list Xia_xpath.Interner.Dense.t;
      (* pattern id -> covered paths *)
}

let path info =
  let rec up acc info =
    let acc = Xia_xpath.Interner.label_value info.label :: acc in
    match info.parent with None -> acc | Some p -> up acc p
  in
  up [] info

let key info = String.concat "/" (path info)

let depth info =
  let rec up n info = match info.parent with None -> n | Some p -> up (n + 1) p in
  up 1 info

(* Cap on the exact distinct-value sets kept during collection; beyond it we
   keep counting nodes but freeze the distinct estimate (matching the sampled
   nature of real RUNSTATS). *)
let distinct_cap = 200_000

(* Reservoir size for the numeric sample feeding each path's histogram. *)
let sample_cap = 4096

(* Distinct strings: [Hashtbl]'s chained buckets, with each cell keeping
   its value's [Hashtbl.hash] where [Hashtbl] keeps the unit data, so the
   set takes no more words than [Hashtbl] does.  A value is hashed once:
   the lookup and the insertion share the hash, and a resize relinks the
   cells by the hash they keep. *)
module String_set = struct
  type bucket = Empty | Cell of { value : string; hash : int; mutable next : bucket }
  type t = { mutable size : int; mutable buckets : bucket array }

  let create () = { size = 0; buckets = Array.make 8 Empty }
  let length t = t.size

  let rec mem value hash = function
    | Empty -> false
    | Cell c -> (c.hash = hash && String.equal c.value value) || mem value hash c.next

  let resize t =
    let buckets = Array.make (2 * Array.length t.buckets) Empty in
    let mask = Array.length buckets - 1 in
    let rec move = function
      | Empty -> ()
      | Cell c as cell ->
          let next = c.next in
          let i = c.hash land mask in
          c.next <- buckets.(i);
          buckets.(i) <- cell;
          move next
    in
    Array.iter move t.buckets;
    t.buckets <- buckets

  let add t value =
    let hash = Hashtbl.hash value in
    let i = hash land (Array.length t.buckets - 1) in
    let bucket = t.buckets.(i) in
    if not (mem value hash bucket) then begin
      t.buckets.(i) <- Cell { value; hash; next = bucket };
      t.size <- t.size + 1;
      if t.size > 2 * Array.length t.buckets then resize t
    end
end

(* Distinct numbers: a [Hashtbl] set over [Float.equal], which identifies
   every [nan] and equates [-0.0] with [0.0], as [Hashtbl.hash] does; one
   [replace] per number hashes it once.  Sets over flat float arrays
   allocate less, but they raised tpox-dml's heap high-water mark by 11%
   (DESIGN.md §5o). *)
module Float_set = Hashtbl.Make (struct
  type t = float

  let equal = Float.equal
  let hash = Hashtbl.hash
end)

type collector_entry = {
  info : path_info;
  values : String_set.t;
  numerics : unit Float_set.t;
  mutable sample : float list;  (* reservoir of numeric values *)
  mutable sample_size : int;
  mutable last_doc : int;
  mutable rng : Random.State.t option;  (* made on the first thinning step *)
  mutable kids : collector_entry list;  (* children, unsorted *)
}

let new_entry parent label =
  {
    info =
      {
        parent;
        label;
        index = -1;
        children = [||];
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
    values = String_set.create ();
    numerics = Float_set.create 16;
    sample = [];
    sample_size = 0;
    last_doc = -1;
    rng = None;
    kids = [];
  }

(* The thinning generator is seeded from the path key, which only a path
   with more than [sample_cap] numeric values ever builds. *)
let rng entry =
  match entry.rng with
  | Some rng -> rng
  | None ->
      let rng = Random.State.make [| Hashtbl.hash (key entry.info) |] in
      entry.rng <- Some rng;
      rng

(* [number] is the coercion's cell, one per collection. *)
let touch number doc_id entry value =
  let info = entry.info in
  info.node_count <- info.node_count + 1;
  if entry.last_doc <> doc_id then begin
    entry.last_doc <- doc_id;
    info.doc_count <- info.doc_count + 1
  end;
  info.total_value_bytes <- info.total_value_bytes + String.length value;
  if String_set.length entry.values < distinct_cap then String_set.add entry.values value;
  if Xia_xpath.Ast.read_number number value then begin
    let v = number.number in
    info.numeric_count <- info.numeric_count + 1;
    if info.min_num > v then info.min_num <- v;
    if info.max_num < v then info.max_num <- v;
    if Float_set.length entry.numerics < distinct_cap then Float_set.replace entry.numerics v ();
    (* Bernoulli reservoir: keep every value up to the cap, then thin. *)
    if entry.sample_size < sample_cap then begin
      entry.sample <- v :: entry.sample;
      entry.sample_size <- entry.sample_size + 1
    end
    else if Random.State.int (rng entry) info.node_count < sample_cap then
      entry.sample <- (match entry.sample with _ :: rest -> v :: rest | [] -> [ v ])
  end

(* Fills in the statistics kept only while collecting, and the children
   in label order, so a preorder lists paths in lexicographic order of
   their label lists. *)
let rec finish entry =
  let info = entry.info in
  info.distinct_values <- max 1 (String_set.length entry.values);
  info.distinct_numeric <- Float_set.length entry.numerics;
  info.histogram <- Histogram.create entry.sample;
  List.iter finish entry.kids;
  let children = Array.of_list (List.map (fun kid -> kid.info) entry.kids) in
  Array.sort
    (fun a b ->
      String.compare
        (Xia_xpath.Interner.label_value a.label)
        (Xia_xpath.Interner.label_value b.label))
    children;
  info.children <- children

(* One guided walk per document: a guide node is one path, and its value is
   that path's collector entry, created as a child of its parent's on the
   path's first sight, so no per-node path or key is built. *)
let collect store =
  (* The empty path: its children are the root elements' paths. *)
  let root = new_entry None (-1) in
  let label parent l =
    let e =
      new_entry (if parent == root then None else Some parent.info) (Xia_xpath.Interner.label l)
    in
    parent.kids <- e :: parent.kids;
    e
  in
  let guide =
    Xia_xml.Packed.guide (Doc_store.labels store) ~root ~label ~dead:(fun _ -> false)
  in
  let number = { Xia_xpath.Ast.number = 0.0 } in
  Doc_store.iter
    (fun doc_id doc ->
      Xia_xml.Packed.walk guide (fun _ _ entry value -> touch number doc_id entry value) doc)
    store;
  finish root;
  let roots = root.info.children in
  let rec preorder acc info = Array.fold_left preorder (info :: acc) info.children in
  let infos = Array.of_list (List.rev (Array.fold_left preorder [] roots)) in
  Array.iteri (fun i info -> info.index <- i) infos;
  {
    table = Doc_store.name store;
    generation = Doc_store.generation store;
    doc_count = Doc_store.doc_count store;
    total_elements = Doc_store.total_elements store;
    total_bytes = Doc_store.total_bytes store;
    roots;
    infos;
    matching_memo = Xia_xpath.Interner.Dense.create ();
  }

let iter f t = Array.iter f t.infos

let fold f t init = Array.fold_left f init t.infos

let path_count t = Array.length t.infos

(* Paths covered by a linear index pattern, via a single trie walk: the NFA
   state set advances once per shared label prefix instead of once per path,
   and a dead state set prunes the whole subtree.  Each label's match mask is
   computed once per walk ([mask_memo]).  Children are visited in label
   order, so the matches come out in [infos] order. *)
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
  let rec walk set info =
    let set = Xia_xpath.Nfa.advance_masks ~desc ~matches:(mask_of info.label) set in
    if set <> 0 then begin
      if Xia_xpath.Nfa.accepting nfa set then matched := info :: !matched;
      Array.iter (walk set) info.children
    end
  in
  Array.iter (walk Xia_xpath.Nfa.initial) t.roots;
  List.rev !matched

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
