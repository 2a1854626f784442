(* XPath evaluation over an XML document.

   Evaluation walks [Xia_xml.Types.t] directly; nothing is copied.  A path
   is evaluated step by step over a list of contexts (elements or
   attributes).  Element contexts carry their preorder rank, counted during
   the walk, because the rank is the node's identity ([Types.node_id.pre]).
   The result is the list of nodes the last step reaches, in the order the
   steps reach them and without duplicates; a node's value is read only
   when a result or a predicate needs it.

   Predicates only ask whether some node exists, so they are a depth-first
   existential search over the raw tree that stops at the first witness.
   It needs no ranks, no intermediate lists and no duplicate removal
   (duplicates cannot change "exists").  Its functions are all top-level,
   so testing a predicate allocates nothing. *)

module T = Xia_xml.Types

type elem = {
  element : T.element;
  pre : int;
}

type match_ = {
  id : T.node_id;
  value : string;
}

let name_test_ok nt tag =
  match nt with
  | Ast.Wildcard -> true
  | Ast.Name s -> String.equal s tag

let root_element fn = function
  | T.Element e -> e
  | T.Text _ -> invalid_arg (fn ^ ": document root is a text node")

(* ---------- predicates: existential search ---------- *)

(* [goal] is the predicate under test.  A node its relative path reaches is
   a witness for [Exists], and for [Compare] when its value compares true. *)
let goal_value goal v =
  match goal with
  | Ast.Exists _ -> true
  | Ast.Compare (_, cmp, lit) -> Ast.literal_matches v cmp lit

(* From an attribute, only the empty relative path reaches a node. *)
let holds_on_attr v = function
  | Ast.Exists [] -> true
  | Ast.Compare ([], cmp, lit) -> Ast.literal_matches v cmp lit
  | Ast.Exists (_ :: _) | Ast.Compare (_ :: _, _, _) -> false

let rec all_hold_on_attr v = function
  | [] -> true
  | p :: ps -> holds_on_attr v p && all_hold_on_attr v ps

(* Does a node that [steps] reach from element [e] witness [goal]? *)
let rec reach goal (e : T.element) steps =
  match steps with
  | [] -> (
      match goal with
      | Ast.Exists _ -> true
      | Ast.Compare (_, cmp, lit) -> Ast.literal_matches (T.element_value e) cmp lit)
  | s :: rest -> step_reach goal e.attrs e.children s rest

(* One step from a parent with attributes [attrs] and children [cs]. *)
and step_reach goal attrs cs (s : Ast.step) rest =
  match s.axis, s.test, rest with
  | Ast.Child, Ast.Elem nt, _ -> child_reach goal nt s.predicates rest cs
  | Ast.Descendant, Ast.Elem nt, _ -> desc_reach goal nt s.predicates rest cs
  | _, Ast.Attr _, _ :: _ -> false
  | Ast.Child, Ast.Attr nt, [] -> attr_reach goal nt s.predicates attrs
  | Ast.Descendant, Ast.Attr nt, [] ->
      attr_reach goal nt s.predicates attrs || desc_attr_reach goal nt s.predicates cs

and child_reach goal nt preds rest = function
  | [] -> false
  | T.Text _ :: cs -> child_reach goal nt preds rest cs
  | T.Element c :: cs ->
      (name_test_ok nt c.tag && all_hold c preds && reach goal c rest)
      || child_reach goal nt preds rest cs

and desc_reach goal nt preds rest = function
  | [] -> false
  | T.Text _ :: cs -> desc_reach goal nt preds rest cs
  | T.Element c :: cs ->
      (name_test_ok nt c.tag && all_hold c preds && reach goal c rest)
      || desc_reach goal nt preds rest c.children
      || desc_reach goal nt preds rest cs

and attr_reach goal nt preds = function
  | [] -> false
  | (k, v) :: attrs ->
      (name_test_ok nt k && all_hold_on_attr v preds && goal_value goal v)
      || attr_reach goal nt preds attrs

and desc_attr_reach goal nt preds = function
  | [] -> false
  | T.Text _ :: cs -> desc_attr_reach goal nt preds cs
  | T.Element c :: cs ->
      attr_reach goal nt preds c.attrs
      || desc_attr_reach goal nt preds c.children
      || desc_attr_reach goal nt preds cs

and all_hold e = function
  | [] -> true
  | p :: ps -> predicate_holds_on e p && all_hold e ps

and predicate_holds_on e p =
  match p with
  | Ast.Exists rel | Ast.Compare (rel, _, _) -> reach p e rel

let any_node = Ast.Exists []

let exists_doc doc path =
  ignore (root_element "Eval.exists_doc" doc);
  match path with
  | [] -> true
  | s :: rest -> step_reach any_node [] [ doc ] s rest

(* ---------- paths: context lists with ranks ---------- *)

type context =
  | C_elem of elem
  | C_attr of {
      owner : int;  (* rank of the owning element *)
      index : int;
      value : string;
    }

(* [n] plus the number of elements in [cs] and below: skipping a sibling's
   subtree gives the next sibling's rank. *)
let rec elements_in n = function
  | [] -> n
  | T.Text _ :: cs -> elements_in n cs
  | T.Element c :: cs -> elements_in (elements_in (n + 1) c.children) cs

(* Each step below conses the contexts it reaches onto [acc], last first.
   [pre] is the rank of the first element of [cs]. *)
let rec children_into nt preds cs pre acc =
  match cs with
  | [] -> acc
  | T.Text _ :: cs -> children_into nt preds cs pre acc
  | T.Element c :: cs ->
      let acc =
        if name_test_ok nt c.tag && all_hold c preds then C_elem { element = c; pre } :: acc
        else acc
      in
      (match cs with
      | [] -> acc
      | _ -> children_into nt preds cs (elements_in (pre + 1) c.children) acc)

let rec attrs_into nt preds owner index attrs acc =
  match attrs with
  | [] -> acc
  | (k, v) :: attrs ->
      let acc =
        if name_test_ok nt k && all_hold_on_attr v preds then
          C_attr { owner; index; value = v } :: acc
        else acc
      in
      attrs_into nt preds owner (index + 1) attrs acc

(* Preorder walks: return the rank after the last element of [cs]. *)
let rec desc_into nt preds cs pre acc =
  match cs with
  | [] -> pre
  | T.Text _ :: cs -> desc_into nt preds cs pre acc
  | T.Element c :: cs ->
      if name_test_ok nt c.tag && all_hold c preds then
        acc := C_elem { element = c; pre } :: !acc;
      desc_into nt preds cs (desc_into nt preds c.children (pre + 1) acc) acc

let rec desc_attrs_into nt preds cs pre acc =
  match cs with
  | [] -> pre
  | T.Text _ :: cs -> desc_attrs_into nt preds cs pre acc
  | T.Element c :: cs ->
      acc := attrs_into nt preds pre 0 c.attrs !acc;
      desc_attrs_into nt preds cs (desc_attrs_into nt preds c.children (pre + 1) acc) acc

(* One step from the element ranked [pre] with [attrs] and [cs]. *)
let step_into (s : Ast.step) pre attrs cs acc =
  match s.axis, s.test with
  | Ast.Child, Ast.Elem nt -> children_into nt s.predicates cs (pre + 1) acc
  | Ast.Child, Ast.Attr nt -> attrs_into nt s.predicates pre 0 attrs acc
  | Ast.Descendant, Ast.Elem nt ->
      let acc = ref acc in
      ignore (desc_into nt s.predicates cs (pre + 1) acc);
      !acc
  | Ast.Descendant, Ast.Attr nt ->
      let acc = ref (attrs_into nt s.predicates pre 0 attrs acc) in
      ignore (desc_attrs_into nt s.predicates cs (pre + 1) acc);
      !acc

let dedup ctxs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun c ->
      let key =
        match c with
        | C_elem e -> (e.pre, -1)
        | C_attr a -> (a.owner, a.index)
      in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    ctxs

(* A step from distinct contexts can reach a node twice only along the
   descendant axis, and only when one context lies below another.  Contexts
   are an antichain (none below another) until the first descendant step,
   so duplicate removal is needed only from the second one on. *)
let rec eval_steps ctxs antichain = function
  | [] -> ctxs
  | (s : Ast.step) :: rest ->
      let next =
        List.rev
          (List.fold_left
             (fun acc c ->
               match c with
               | C_elem { element; pre } -> step_into s pre element.attrs element.children acc
               | C_attr _ -> acc)
             [] ctxs)
      in
      let child = match s.axis with Ast.Child -> true | Ast.Descendant -> false in
      eval_steps (if antichain || child then next else dedup next) (antichain && child) rest

(* Contexts an absolute path reaches.  The document node has no attributes
   and the root element, ranked 0, as its only child. *)
let contexts fn doc path =
  let root = root_element fn doc in
  match path with
  | [] -> [ C_elem { element = root; pre = 0 } ]
  | path ->
      let document = { T.tag = ""; attrs = []; children = [ doc ] } in
      eval_steps [ C_elem { element = document; pre = -1 } ] true path

let eval doc path =
  List.map
    (function
      | C_elem e -> { id = { T.pre = e.pre; attr = None }; value = T.element_value e.element }
      | C_attr a -> { id = { T.pre = a.owner; attr = Some a.index }; value = a.value })
    (contexts "Eval.eval" doc path)

let eval_elements doc path =
  List.filter_map
    (function C_elem e -> Some e | C_attr _ -> None)
    (contexts "Eval.eval_elements" doc path)
