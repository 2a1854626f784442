(* The document walk that [Packed.walk] replaced, kept as the differential
   oracle for it and for the layers built on it.  It walks trees; stored
   documents are unpacked first.

   It builds each node's rooted label path as a fresh list and copies its
   direct text, so every node costs allocation; in exchange each rule is
   one line.  [build] and [recount] derive an index and per-path statistics
   from it with no dataguide, no NFA state sharing and no pruning. *)

module T = Xia_xml.Types
module PI = Xia_index.Physical_index
module DS = Xia_storage.Doc_store

(* [iter_nodes f doc] calls [f id label_path value] for every element and
   every attribute, in document order; attribute labels are "@name" and the
   root element has rank 0. *)
let iter_nodes f doc =
  let counter = ref 0 in
  let rec walk rev_path node =
    match node with
    | T.Text _ -> ()
    | T.Element e ->
        let pre = !counter in
        incr counter;
        let rev_path = e.tag :: rev_path in
        let label_path = List.rev rev_path in
        f { T.pre; attr = None } label_path (T.direct_text e);
        List.iteri
          (fun i (k, v) -> f { T.pre; attr = Some i } (label_path @ [ "@" ^ k ]) v)
          e.attrs;
        List.iter (walk rev_path) e.children
  in
  walk [] doc

(* Every node the pattern accepts, keyed by the index's data type, sorted
   in index order. *)
let build store (def : Xia_index.Index_def.t) =
  let acc = ref [] in
  DS.iter
    (fun doc_id doc ->
      iter_nodes
        (fun node path value ->
          if Xia_xpath.Pattern.accepts def.pattern path then
            match PI.key_of_value def.dtype value with
            | None -> ()
            | Some key -> acc := { PI.key; doc = doc_id; node } :: !acc)
        (Xia_xml.Packed.unpack doc))
    store;
  List.sort PI.compare_entry !acc

type recount = {
  nodes : int;
  docs : int;
  distinct : int;  (* at least 1, as RUNSTATS reports it *)
  numeric : int;
  distinct_numeric : int;
  min_num : float;
  max_num : float;
}

(* Per-path counts by path key, from one oracle walk per document. *)
let recount store =
  let rows : (string, (int * string) list) Hashtbl.t = Hashtbl.create 64 in
  DS.iter
    (fun doc_id doc ->
      iter_nodes
        (fun _ path value ->
          let key = String.concat "/" path in
          let prev = Option.value ~default:[] (Hashtbl.find_opt rows key) in
          Hashtbl.replace rows key ((doc_id, value) :: prev))
        (Xia_xml.Packed.unpack doc))
    store;
  Hashtbl.fold
    (fun key seen acc ->
      let seen = List.rev seen in
      let numbers = List.filter_map (fun (_, v) -> float_of_string_opt (String.trim v)) seen in
      let count_distinct l = List.length (List.sort_uniq compare l) in
      ( key,
        {
          nodes = List.length seen;
          docs = count_distinct (List.map fst seen);
          distinct = max 1 (count_distinct (List.map snd seen));
          numeric = List.length numbers;
          distinct_numeric = count_distinct numbers;
          min_num = List.fold_left (fun m v -> if m > v then v else m) infinity numbers;
          max_num = List.fold_left (fun m v -> if m < v then v else m) neg_infinity numbers;
        } )
      :: acc)
    rows []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
