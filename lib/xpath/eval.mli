(** XPath evaluation over XML documents, walking [Xia_xml.Types.t] directly. *)

(** An element reached by a path, with its preorder rank in the document
    (the root element has rank 0). *)
type elem = {
  element : Xia_xml.Types.element;
  pre : int;
}

type match_ = {
  id : Xia_xml.Types.node_id;
  value : string;
}

(** Evaluate an absolute path (with predicates): the elements and attributes
    the last step reaches, with their values, duplicate-free, in the order
    the steps reach them: document order, except that after a descendant
    step the nodes reached from one context all precede those reached from
    the next.
    @raise Invalid_argument if the root is a text node. *)
val eval : Xia_xml.Types.t -> Ast.path -> match_ list

(** The elements {!eval} reaches; attribute matches are dropped (an element
    binding is required to navigate further).
    @raise Invalid_argument if the root is a text node. *)
val eval_elements : Xia_xml.Types.t -> Ast.path -> elem list

(** Does the predicate hold with the element as context node?  A
    depth-first search that stops at the first witness and allocates
    nothing. *)
val predicate_holds_on : Xia_xml.Types.element -> Ast.predicate -> bool

(** Does the path reach any node?  The same search as
    {!predicate_holds_on}, from the document node.
    @raise Invalid_argument if the root is a text node. *)
val exists_doc : Xia_xml.Types.t -> Ast.path -> bool
