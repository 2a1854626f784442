(** Cross-compilation-unit call graph over the untyped parsetree.

    Nodes are toplevel value bindings (dotted names inside nested modules).
    The graph resolves [Longident] paths through the dune library layout,
    toplevel module aliases and [open]s — conservatively on ambiguity, so
    reachability over-approximates the real program.  Its edges are the
    resolved call lists the one site walk produces ({!Sites.calls}): a
    binding's edges reach every binding its body references under a name
    no local binder shadows.  See DESIGN.md §5f for the soundness and
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

(** Compare nodes by {!key}. *)
val by_key : node -> node -> int

(** The variable a pattern binds, through type constraints. *)
val var_of_pattern : Parsetree.pattern -> string option

(** Every node a dotted path may denote, seen from [unit_info] (alias
    expansion, library qualification, sibling units, [open]s; all plausible
    targets on ambiguity). *)
val resolve : t -> unit_info -> string list -> node list

(** {1 The transitive engine}

    Every transitive fact of the analyzer is a {!reach} query over an
    edge set the caller picks, the resolved calls ({!Sites.calls}). *)

(** [reach ~succ ~cut root]: every node a depth-first walk from [root]
    enters, in entry order, each with its trail — the nodes from [root]
    down to the one it was entered from ([\[\]] for the root).  Callees
    are taken in key order; the walk never enters a node where [cut]
    holds, the root included. *)
val reach :
  succ:(node -> node list) -> cut:(node -> bool) -> node -> (node * node list) list

(** Deterministic Graphviz rendering of the graph with the edges [succ]
    (nodes and edges sorted). *)
val to_dot : succ:(node -> node list) -> t -> string
