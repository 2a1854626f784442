(** Per-binding effect summaries over the cross-unit call graph.

    Per toplevel value binding the pass folds the binding's {!Sites} into
    its local witness sites ({!summary}); it propagates nothing.  The
    D003 and E002 checks reach the local sites they need with
    {!Callgraph.reach} over {!Sites.calls}.

    The analysis is syntactic over the untyped parsetree; the witness
    rules and the soundness/incompleteness trade-offs are documented in
    DESIGN.md §5h. *)

(** A classified source site; [s_suppressed] is true when an enclosing
    [\[@lint.allow "<ID>"\]] covers the site for the check that consumes
    this witness kind. *)
type witness = { s_loc : Location.t; s_what : string; s_suppressed : bool }

type t

(** Fold every node's sites into its local summary. *)
val analyze : Sites.t -> t

(** One binding's local summary, folded from its own sites.  Witness sites
    of non-local state only: writes to per-call raw locals are excluded. *)
type summary = {
  io : witness list;  (** IO sites (E001) *)
  order : witness list;
      (** Hashtbl/Queue folds whose literal closure builds a list with no
          canonicalizing sort in the same binding (N001) *)
  writes : witness list;
      (** shared-state writes (E002); Atomic operations excluded *)
  mutations : witness list;
      (** alias-expanded [Catalog.*]/[Doc_store.*] mutator references
          (D003); attribute-suppressed ones dropped *)
}

val summary : t -> Callgraph.node -> summary

(** {1 Shared syntactic classifiers}

    Used by {!Checks}; they live here, once, so the whole
    analysis stack agrees on what counts as mutable state and which
    expression names which target. *)

(** Is ["ID"] among the [\[@lint.allow\]] ids of these attributes? *)
val allow : string -> Parsetree.attributes -> bool

(** Is [suffix] a component suffix of [path] ([\["Atomic"; "get"\]] of
    [\["Stdlib"; "Atomic"; "get"\]])? *)
val has_suffix : suffix:string list -> string list -> bool

(** The unlabeled arguments of an application, in order. *)
val nolabel_args :
  (Asttypes.arg_label * Parsetree.expression) list -> Parsetree.expression list

(** The first unlabeled argument: the target of [x := v], the atomic of
    [Atomic.get x]. *)
val first_nolabel :
  (Asttypes.arg_label * Parsetree.expression) list -> Parsetree.expression option

(** Symbolic identity of an atomic/target expression: the dotted ident or
    field path (["t.memo"]); [None] for array cells, call results and other
    unnamed values. *)
val sym : Parsetree.expression -> string option

(** Does the expression or one of its subexpressions satisfy the
    predicate?  Stops descending at the first hit. *)
val exists_expr : (Parsetree.expression -> bool) -> Parsetree.expression -> bool

(** Classify an expression as raw shared mutable state: every
    [(location, allocator)] pair found descending through wrappers and data
    constructors.  Empty for deferred allocations (functions, [lazy]) and
    for initializers that call anything but [ref] or a container
    allocator. *)
val d001_hits :
  (string, unit) Hashtbl.t ->
  (Location.t * string) list ->
  Parsetree.expression ->
  (Location.t * string) list
