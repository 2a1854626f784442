(** The site table: one parsetree walk per compilation unit, shared by
    every check.

    The walk visits every expression of a unit once — call-graph nodes,
    functor bodies and toplevel [;;] expressions alike — and records the
    syntactic sites the checks classify, each with the
    [\[@lint.allow\]] IDs active there.  Every identifier is resolved
    through the {!Callgraph} here; a binding's resolved references that
    no local binder shadows are its call list ({!calls}), the one edge
    set of the call graph.  {!Checks} classifies the sites itself: per
    unit, per binding, or per binding a {!Callgraph.reach} enters.  See
    DESIGN.md §5c. *)

(** A resolved identifier.  [shadowed] holds when a variable some pattern
    of the same binding binds has this (single-component) name. *)
type ident = {
  path : string list;                (** as written *)
  targets : Callgraph.node list;     (** {!Callgraph.resolve}d *)
  mutable shadowed : bool;
}

type kind =
  | Ref of ident  (** every identifier, applied or not *)
  | Apply of ident * (Asttypes.arg_label * Parsetree.expression) list
      (** an identifier applied to arguments; the head is also a [Ref] *)
  | Binder of string  (** a variable a pattern binds *)
  | Let of Parsetree.pattern * Parsetree.expression * Parsetree.expression option
      (** a value binding: its pattern, its right-hand side and, in
          [let p = e in body], the body *)
  | Setfield of Parsetree.expression * string * Parsetree.expression
      (** [base.f <- value] *)
  | Assert of Parsetree.expression  (** [assert e] *)

type site = {
  loc : Location.t;
  kind : kind;
  allow : string list list;
      (** [\[@lint.allow\]] IDs of the enclosing expressions and value
          bindings, innermost first *)
}

type t

(** Walk every unit of the graph once. *)
val build : Callgraph.t -> t

val graph : t -> Callgraph.t

(** Every site of a unit, in walk (pre-)order. *)
val unit_sites : t -> Callgraph.unit_info -> site list

(** The sites of one binding's right-hand side, in walk order. *)
val node_sites : t -> Callgraph.node -> site list

(** The node's resolved call targets: the targets of its references that
    no local binder shadows, itself excluded, deduplicated and sorted by
    {!Callgraph.key}.  Each binding has its own, a toplevel binding that a
    later one of the same name shadows included. *)
val calls : t -> Callgraph.node -> Callgraph.node list

(** Field names declared [mutable] anywhere in the unit. *)
val mutable_fields : t -> Callgraph.unit_info -> (string, unit) Hashtbl.t

(** Is the check ID among the site's active [\[@lint.allow\]] IDs? *)
val active : site -> string -> bool

(** Apply [f] to every immediate child expression, in syntactic order. *)
val iter_child_exprs : (Parsetree.expression -> unit) -> Parsetree.expression -> unit
