(* The evaluator Xia_xpath.Eval replaced, kept as the differential oracle.

   It copies the document into annotated nodes (preorder rank, attribute
   array, concatenated direct text) and evaluates every step, predicates
   included, by building the full context list and removing duplicates
   with a table.  Slow, but each rule is one line of the XPath data
   model. *)

module Ast = Xia_xpath.Ast
module T = Xia_xml.Types

type match_ = Xia_xpath.Eval.match_ = {
  id : T.node_id;
  value : string;
}

type anode = {
  pre : int;
  tag : string;
  attrs : (string * string) array;
  value : string;
  children : anode list;
}

let annotate doc =
  let counter = ref 0 in
  let rec walk = function
    | T.Text _ -> None
    | T.Element e ->
        let pre = !counter in
        incr counter;
        let children = List.filter_map walk e.children in
        Some
          {
            pre;
            tag = e.tag;
            attrs = Array.of_list e.attrs;
            value = T.direct_text e;
            children;
          }
  in
  match walk doc with
  | Some root -> root
  | None -> invalid_arg "Eval_oracle.annotate: document root is a text node"

(* Evaluation context: an element or one of its attributes. *)
type context =
  | C_elem of anode
  | C_attr of anode * int

let context_id = function
  | C_elem n -> { T.pre = n.pre; attr = None }
  | C_attr (n, i) -> { T.pre = n.pre; attr = Some i }

let context_value = function
  | C_elem n -> n.value
  | C_attr (n, i) -> snd n.attrs.(i)

let name_test_ok nt tag =
  match nt with
  | Ast.Wildcard -> true
  | Ast.Name s -> String.equal s tag

let rec descendants_acc n acc =
  List.fold_left (fun acc c -> descendants_acc c (c :: acc)) acc n.children

(* All proper descendants of [n], in reverse document order. *)
let descendants n = descendants_acc n []

let attr_contexts nt n =
  let acc = ref [] in
  Array.iteri
    (fun i (k, _) -> if name_test_ok nt k then acc := C_attr (n, i) :: !acc)
    n.attrs;
  List.rev !acc

(* One structural step from a single context node (predicates not applied). *)
let step_from ctx (s : Ast.step) =
  match ctx with
  | C_attr _ -> []
  | C_elem n -> (
      match s.axis, s.test with
      | Ast.Child, Ast.Elem nt ->
          List.filter_map
            (fun c -> if name_test_ok nt c.tag then Some (C_elem c) else None)
            n.children
      | Ast.Child, Ast.Attr nt -> attr_contexts nt n
      | Ast.Descendant, Ast.Elem nt ->
          (* The evaluator this oracle comes from reversed this list once
             more, so a descendant step after the first one returned its
             nodes in reverse document order; Eval returns document order. *)
          List.filter
            (fun c -> match c with C_elem d -> name_test_ok nt d.tag | C_attr _ -> false)
            (List.rev_map (fun d -> C_elem d) (descendants n))
      | Ast.Descendant, Ast.Attr nt ->
          (* descendant-or-self::node()/attribute::nt *)
          let nodes = n :: List.rev (descendants n) in
          List.concat_map (attr_contexts nt) nodes)

let dedup_contexts ctxs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun c ->
      let id = context_id c in
      let key = (id.T.pre, id.T.attr) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    ctxs

let rec eval_steps ctxs path =
  match path with
  | [] -> ctxs
  | s :: rest ->
      let next = List.concat_map (fun c -> step_after_predicates c s) ctxs in
      eval_steps (dedup_contexts next) rest

and step_after_predicates ctx s =
  let reached = step_from ctx s in
  if s.Ast.predicates = [] then reached
  else List.filter (fun c -> List.for_all (predicate_holds c) s.Ast.predicates) reached

and predicate_holds ctx = function
  | Ast.Exists rel -> eval_steps [ ctx ] rel <> []
  | Ast.Compare ([], cmp, lit) -> Ast.literal_matches (context_value ctx) cmp lit
  | Ast.Compare (rel, cmp, lit) ->
      List.exists
        (fun c -> Ast.literal_matches (context_value c) cmp lit)
        (eval_steps [ ctx ] rel)

(* Evaluate an absolute path from the (virtual) document node.  The document
   node has the root element as its single child, and its descendants are the
   root element and everything below it. *)
let eval root path =
  match path with
  | [] -> [ { id = context_id (C_elem root); value = root.value } ]
  | first :: rest ->
      let initial =
        match first.Ast.axis, first.Ast.test with
        | Ast.Child, Ast.Elem nt ->
            if name_test_ok nt root.tag then [ C_elem root ] else []
        | Ast.Child, Ast.Attr _ -> []
        | Ast.Descendant, Ast.Elem nt ->
            let all = C_elem root :: List.rev_map (fun d -> C_elem d) (descendants root) in
            List.filter
              (fun c -> match c with C_elem n -> name_test_ok nt n.tag | C_attr _ -> false)
              all
        | Ast.Descendant, Ast.Attr nt ->
            let nodes = root :: List.rev (descendants root) in
            List.concat_map (attr_contexts nt) nodes
      in
      let initial =
        if first.Ast.predicates = [] then initial
        else
          List.filter
            (fun c -> List.for_all (predicate_holds c) first.Ast.predicates)
            initial
      in
      let finals = eval_steps (dedup_contexts initial) rest in
      List.map (fun c -> { id = context_id c; value = context_value c }) finals

(* Element nodes reached by an absolute path (attribute matches dropped). *)
let eval_elements root path =
  match path with
  | [] -> [ root ]
  | first :: rest ->
      let initial =
        match first.Ast.axis, first.Ast.test with
        | Ast.Child, Ast.Elem nt ->
            if name_test_ok nt root.tag then [ C_elem root ] else []
        | Ast.Descendant, Ast.Elem nt ->
            let all = C_elem root :: List.rev_map (fun d -> C_elem d) (descendants root) in
            List.filter
              (fun c -> match c with C_elem n -> name_test_ok nt n.tag | C_attr _ -> false)
              all
        | _, Ast.Attr _ -> []
      in
      let initial =
        if first.Ast.predicates = [] then initial
        else
          List.filter
            (fun c -> List.for_all (predicate_holds c) first.Ast.predicates)
            initial
      in
      List.filter_map
        (fun c -> match c with C_elem n -> Some n | C_attr _ -> None)
        (eval_steps (dedup_contexts initial) rest)

(* Does the predicate hold for an element context? *)
let predicate_holds_on node pred = predicate_holds (C_elem node) pred

(* The tree update that [Executor.set_value] replaced, kept as the oracle
   for packed updates: every element [target] reaches gets the one text
   child [v], placed before its element children. *)
let set_value doc target v =
  let hits = Hashtbl.create 8 in
  List.iter (fun n -> Hashtbl.replace hits n.pre ()) (eval_elements (annotate doc) target);
  let counter = ref 0 in
  let rec rebuild = function
    | T.Text _ as t -> t
    | T.Element e ->
        let pre = !counter in
        incr counter;
        let children = List.map rebuild e.children in
        if Hashtbl.mem hits pre then
          T.Element { e with children = T.Text v :: List.filter (function T.Element _ -> true | T.Text _ -> false) children }
        else T.Element { e with children }
  in
  rebuild doc
