(** XPath evaluation over packed documents ({!Xia_xml.Packed}).

    A path or predicate is compiled once against a label table, which turns
    its name tests into label ids; the compiled form then evaluates over any
    document of that table.  Names the table has never seen match nothing,
    so a compiled form must not outlive inserts into its table. *)

type match_ = {
  id : Xia_xml.Types.node_id;
  value : string;
}

(** A compiled absolute path.  It keeps scratch state, so it is not
    reentrant: one evaluation of a path must finish before the next one
    of the same path starts. *)
type path

(** A compiled predicate, tested with an element as context node. *)
type predicate

val path : Xia_xml.Packed.labels -> Ast.path -> path
val predicate : Xia_xml.Packed.labels -> Ast.predicate -> predicate

(** The elements and attributes the last step reaches, with their values,
    duplicate-free, in the order the steps reach them: document order,
    except that after a descendant step the nodes reached from one context
    all precede those reached from the next. *)
val eval : path -> Xia_xml.Packed.t -> match_ list

(** The ranks of the elements {!eval} reaches, in the same order;
    attributes are dropped (an element binding is required to navigate
    further). *)
val elements : path -> Xia_xml.Packed.t -> int list

(** [count p keep doc] is the number of {!elements} ranks [r] with
    [keep doc r].  Allocates nothing. *)
val count : path -> (Xia_xml.Packed.t -> int -> bool) -> Xia_xml.Packed.t -> int

(** Does the path reach any node?  A depth-first search that stops at the
    first witness. *)
val exists : path -> Xia_xml.Packed.t -> bool

(** Does the predicate hold with the element ranked [r] as context node?
    The same search as {!exists}; allocates nothing. *)
val holds : Xia_xml.Packed.t -> int -> predicate -> bool
