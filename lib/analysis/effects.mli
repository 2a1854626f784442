(** Interprocedural effect inference over the cross-unit call graph.

    Per toplevel value binding the pass scans the body once for its local
    effects — a set of {!effect_kind}, where the empty set is [Pure] — and
    its local witness sites (raw-global references, catalog/store mutator
    references, shared writes, order-dependent folds, float
    accumulations).  The only transitive fact it computes itself is the
    total flag set, one {!Callgraph.fixpoint} over {!calls} (recursion,
    module aliases and ambiguous edges join every candidate).  The D003,
    R001, N002 and E002 checks reach the local sites they need with
    {!Callgraph.reach} over the same call lists.

    The analysis is syntactic over the untyped parsetree; lattice
    semantics, propagation rules and the soundness/incompleteness
    trade-offs are documented in DESIGN.md §5h. *)

(** One effect dimension; a summary is a set of these. *)
type effect_kind =
  | Reads_mutable      (** reads shared mutable state *)
  | Writes_mutable     (** writes state that may outlive the call *)
  | Performs_io        (** unambiguous channel/console/filesystem traffic *)
  | Order_dependent    (** consumes Hashtbl/Queue iteration order or [==] *)
  | Nondeterministic   (** global [Random], raw clocks, shared float accumulation *)

(** Stable display name: ["ReadsMutable"], ["WritesMutable"], ... *)
val kind_name : effect_kind -> string

(** A classified source site; [s_suppressed] is true when an enclosing
    [\[@lint.allow "<ID>"\]] covers the site for the check that consumes
    this witness kind. *)
type site = { s_loc : Location.t; s_what : string; s_suppressed : bool }

(** A reference to raw module-toplevel mutable state. *)
type race_witness = {
  w_loc : Location.t;
  w_global : string;    (** binding name of the raw global *)
  w_kind : string;      (** allocator: ["ref"], ["Hashtbl.create"], ... *)
  w_path : string;      (** unit path declaring the global *)
  w_suppressed : bool;
}

type t

(** Run the local scan over every node; total flags are joined on
    demand. *)
val analyze : Callgraph.t -> t

(** Effects of the node's own body only. *)
val local_effects : t -> Callgraph.node -> effect_kind list

(** Effects joined over the node and everything it may call. *)
val total_effects : t -> Callgraph.node -> effect_kind list

(** IO sites in the node's own body (E001's witnesses). *)
val local_io : t -> Callgraph.node -> site list

(** Hashtbl/Queue folds in the node's own body whose literal closure builds
    a list with no canonicalizing sort in the same binding (N001's
    witnesses). *)
val local_order : t -> Callgraph.node -> site list

(** Shared-state writes in the node's own body (E002's witnesses).  Atomic
    operations and writes to per-call raw locals are excluded;
    catalog/store mutators are carried separately as mutation sites. *)
val local_writes : t -> Callgraph.node -> site list

(** Alias-expanded [Catalog.*]/[Doc_store.*] mutator references in the
    node's own body (D003's sites).  Attribute-suppressed sites are already
    dropped, mirroring the previous D003 scan. *)
val local_mutations : t -> Callgraph.node -> site list

(** References to raw module-toplevel mutable state in the node's own body
    (R001's sites). *)
val local_globals : t -> Callgraph.node -> race_witness list

(** Read-modify-write float updates of non-local state in the node's own
    body ([t := !t +. x], [r.sum <- r.sum +. x]; N002's sites). *)
val local_accumulations : t -> Callgraph.node -> site list

(** Resolved call targets of the node (shadow-skipped, deduplicated,
    sorted by key). *)
val calls : t -> Callgraph.node -> Callgraph.node list

(** The node takes a [Mutex.lock] or carries [\[@lint.allow "R001"\]]. *)
val lock_disciplined : t -> Callgraph.node -> bool

(** The node references a [Par.map]/[Par.map_list]/[Par.iter]/
    [Domain.spawn] fan-out point. *)
val has_par_fanout : t -> Callgraph.node -> bool

(** The node references [Par.sum_list], the sanctioned deterministic
    parallel float reduction. *)
val uses_sum_list : t -> Callgraph.node -> bool

(** [List.fold_left]/[Array.fold_left] applications whose folding function
    contains float arithmetic (N002's order-fragile reduction sites). *)
val float_folds : t -> Callgraph.node -> site list

(** Is this node raw module-toplevel mutable state?  Returns the allocator
    kind.  Memoized; [\[@lint.allow "R001"\]] on the binding yields
    [None]. *)
val raw_global : t -> Callgraph.node -> string option

(** Raw mutable locals let-bound anywhere in the node body, name -> kind. *)
val raw_locals : t -> Callgraph.node -> (string, string) Hashtbl.t

(** Deterministic per-binding summary dump, one
    ["<unit path> <name>: local=<flags> total=<flags>"] line per node,
    sorted by node key; flag sets print in fixed order and [Pure] stands
    for the empty set.  Byte-stable across runs (the [--effects] output). *)
val dump : t -> string

(** {1 Shared syntactic classifiers}

    Used by {!Checks}, {!Races} and {!Dataflow}; they live here, once, so
    the whole analysis stack agrees on what counts as mutable state, which
    expression names which mutex, and where a task escapes. *)

(** Is ["ID"] among the [\[@lint.allow\]] ids of these attributes? *)
val allow : string -> Parsetree.attributes -> bool

(** Is [suffix] a component suffix of [path]?
    [has_suffix ~suffix:\["Par"; "map"\] \["Xia_core"; "Par"; "map"\]] is
    [true]. *)
val has_suffix : suffix:string list -> string list -> bool

(** The unlabeled arguments of an application, in order. *)
val nolabel_args :
  (Asttypes.arg_label * Parsetree.expression) list -> Parsetree.expression list

(** The first unlabeled argument: the subject of [Mutex.lock m], the task
    of [Par.map ~domains f arr], the target of [x := v]. *)
val first_nolabel :
  (Asttypes.arg_label * Parsetree.expression) list -> Parsetree.expression option

(** Symbolic identity of a lock/atomic/target expression: the dotted ident
    or field path (["pool.lock"], ["t.shards.lock"]); [None] for array
    cells, call results and other unnamed values.  Mutexes are identified
    nominally by it. *)
val sym : Parsetree.expression -> string option

(** Is the expression a literal function (through type constraints)? *)
val is_closure : Parsetree.expression -> bool

(** Does the expression or one of its subexpressions satisfy the
    predicate?  Stops descending at the first hit. *)
val exists_expr : (Parsetree.expression -> bool) -> Parsetree.expression -> bool

(** The display name of a parallel fan-out entry point ([Par.map],
    [Par.map_list], [Par.iter], [Domain.spawn]) the alias-expanded path
    denotes, if any. *)
val par_entry_of_path : string list -> string option

(** Field names declared [mutable] anywhere in this compilation unit. *)
val mutable_field_names : Parsetree.structure -> (string, unit) Hashtbl.t

(** Classify an expression as raw shared mutable state: every
    [(location, allocator)] pair found descending through wrappers and data
    constructors.  Empty for deferred allocations (functions, [lazy]) and
    Atomic/Mutex/DLS-wrapped initializers. *)
val d001_hits :
  (string, unit) Hashtbl.t ->
  (Location.t * string) list ->
  Parsetree.expression ->
  (Location.t * string) list

(** All variable names bound by patterns anywhere inside the expression. *)
val bound_vars : Parsetree.expression -> (string, unit) Hashtbl.t

(** Classify a dotted path as an unambiguous IO builtin (console/channel/
    filesystem traffic); returns the display name.  Callers gate on empty
    graph resolution first, so project bindings sharing a builtin's name
    do not classify. *)
val io_of_path : string list -> string option

(** Read-modify-write float-update sites in an expression as
    [(loc, description, n002_suppressed)] triples; [exempt] names targets
    to skip (per-call locals, closure-bound accumulators), [stack0] seeds
    the attribute-suppression stack. *)
val float_acc_sites :
  ?stack0:string list ->
  exempt:(string -> bool) ->
  Parsetree.expression ->
  (Location.t * string * bool) list
