(** Cross-compilation-unit call graph over the untyped parsetree.

    Nodes are toplevel value bindings (dotted names inside nested modules).
    The graph resolves [Longident] paths through the dune library layout,
    toplevel module aliases and [open]s — conservatively on ambiguity:
    every plausible target is kept.  The one site walk ({!Sites}) resolves
    every identifier through it, so E001 can tell a project binding from
    an IO builtin.  See DESIGN.md §5f for the soundness and
    incompleteness trade-offs. *)

type unit_info = {
  path : string;      (** as given to the driver, e.g. "lib/core/benefit.ml" *)
  basename : string;  (** lowercase, extension-stripped: "benefit" *)
  modname : string;   (** the unit's module name: "Benefit" *)
  dir : string;       (** [Filename.dirname path] *)
  source : string;
  structure : Parsetree.structure;
}

type node = {
  u : unit_info;
  name : string;
      (** toplevel binding name; dotted inside nested modules, [_] naming an
          anonymous one *)
  expr : Parsetree.expression;
  attrs : Parsetree.attributes;
  loc : Location.t;
  allow : string list;  (** [\[@@lint.allow\]] IDs of the enclosing module bindings *)
}

type t

val make_unit : path:string -> source:string -> Parsetree.structure -> unit_info

(** Build the graph: collect bindings, aliases and opens per unit, and read
    each unit directory's [dune] file for the wrapped-library module name. *)
val build : unit_info list -> t

val units : t -> unit_info list
val nodes : t -> node list

(** The directories of units that have no readable [dune] file, sorted: a
    call that names their library ([Xia_index.Catalog.stats]) resolves
    only through the module-name fallback, if at all. *)
val without_dune : t -> string list

(** Stable node identity: [(unit path, binding name)]. *)
val key : node -> string * string

(** The variable a pattern binds, through type constraints. *)
val var_of_pattern : Parsetree.pattern -> string option

(** Every node a dotted path may denote, seen from [unit_info] (alias
    expansion, library qualification, sibling units, [open]s; all plausible
    targets on ambiguity). *)
val resolve : t -> unit_info -> string list -> node list
