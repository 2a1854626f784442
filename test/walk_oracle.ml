(* The document walk that [Packed.walk] replaced, kept as the differential
   oracle for it and for the layers built on it.  It walks trees; stored
   documents are unpacked first.

   It builds each node's rooted label path as a fresh list and copies its
   direct text, so every node costs allocation; in exchange each rule is
   one line.  [build] derives an index from it with no dataguide, no NFA
   state sharing and no pruning; [Path_stats_oracle] derives per-path
   statistics from it. *)

module T = Xia_xml.Types
module PI = Xia_index.Physical_index
module DS = Xia_storage.Doc_store

(* The node id [Packed.walk]'s callback describes by its two ints. *)
let node_id pre attr = { T.pre; attr = (if attr < 0 then None else Some attr) }

(* [iter_nodes f doc] calls [f pre attr label_path value] for every element
   and every attribute, in document order, with [Packed.walk]'s callback:
   [pre] is the element's preorder rank (the root's is 0) and [attr] the
   attribute's position in its element, -1 for the element itself;
   attribute labels are "@name". *)
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
        f pre (-1) label_path (T.direct_text e);
        List.iteri (fun i (k, v) -> f pre i (label_path @ [ "@" ^ k ]) v) e.attrs;
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
        (fun pre attr path value ->
          if Xia_xpath.Nfa.accepts (Xia_xpath.Pattern.nfa_of def.pattern) path then
            match PI.key_of_value def.dtype value with
            | None -> ()
            | Some key -> acc := { PI.key; doc = doc_id; node = node_id pre attr } :: !acc)
        (Xia_xml.Packed.unpack doc))
    store;
  List.sort PI.compare_entry !acc
