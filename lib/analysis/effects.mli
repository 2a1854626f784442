(** Per-binding effect summaries over the cross-unit call graph.

    Per toplevel value binding the pass folds the binding's {!Sites} into
    its local witness sites ({!summary}); it propagates nothing.  The
    D003, R001, N002 and E002 checks reach the local sites they need with
    {!Callgraph.reach} over {!Sites.calls}, and L001's "may perform IO"
    is a {!Callgraph.fixpoint} over the IO witnesses in {!Dataflow}.

    The analysis is syntactic over the untyped parsetree; the witness
    rules and the soundness/incompleteness trade-offs are documented in
    DESIGN.md §5h. *)

(** A classified source site; [s_suppressed] is true when an enclosing
    [\[@lint.allow "<ID>"\]] covers the site for the check that consumes
    this witness kind. *)
type witness = { s_loc : Location.t; s_what : string; s_suppressed : bool }

(** A reference to raw module-toplevel mutable state. *)
type race_witness = {
  w_loc : Location.t;
  w_global : string;    (** binding name of the raw global *)
  w_kind : string;      (** allocator: ["ref"], ["Hashtbl.create"], ... *)
  w_path : string;      (** unit path declaring the global *)
  w_suppressed : bool;
}

type t

(** Fold every node's sites into its local summary. *)
val analyze : Sites.t -> t

(** One binding's local summary, folded from its own sites.  Witness sites
    of non-local state only: writes to and float accumulations into
    per-call raw locals are excluded. *)
type summary = {
  locals : (string, string) Hashtbl.t;
      (** raw mutable locals let-bound anywhere in the body, name -> kind *)
  io : witness list;  (** IO sites (E001; L001's local IO fact) *)
  order : witness list;
      (** Hashtbl/Queue folds whose literal closure builds a list with no
          canonicalizing sort in the same binding (N001) *)
  writes : witness list;
      (** shared-state writes (E002); Atomic operations excluded *)
  mutations : witness list;
      (** alias-expanded [Catalog.*]/[Doc_store.*] mutator references
          (D003); attribute-suppressed ones dropped *)
  globals : race_witness list;  (** raw module-toplevel state references (R001) *)
  accs : witness list;
      (** read-modify-write float updates ([t := !t +. x],
          [r.sum <- r.sum +. x]; N002) *)
  fanout : bool;  (** references [Par.map]/[map_list]/[iter] or [Domain.spawn] *)
  sum_list : bool;  (** references [Par.sum_list], the sanctioned reduction *)
  float_folds : witness list;
      (** [List]/[Array.fold_left] with float arithmetic in the folding
          function (N002) *)
  lock_disciplined : bool;
      (** takes a [Mutex.lock] or carries [\[@lint.allow "R001"\]] *)
}

val summary : t -> Callgraph.node -> summary

(** Is this node raw module-toplevel mutable state?  Returns the allocator
    kind.  Memoized; [\[@lint.allow "R001"\]] on the binding yields
    [None]. *)
val raw_global : t -> Callgraph.node -> string option

(** {1 Shared syntactic classifiers}

    Used by {!Checks}, {!Races} and {!Dataflow}; they live here, once, so
    the whole analysis stack agrees on what counts as mutable state, which
    expression names which mutex, and where a task escapes. *)

(** Is ["ID"] among the [\[@lint.allow\]] ids of these attributes? *)
val allow : string -> Parsetree.attributes -> bool

(** Is [suffix] a component suffix of [path] ([\["Par"; "map"\]] of
    [\["Xia_core"; "Par"; "map"\]])? *)
val has_suffix : suffix:string list -> string list -> bool

(** The unlabeled arguments of an application, in order. *)
val nolabel_args :
  (Asttypes.arg_label * Parsetree.expression) list -> Parsetree.expression list

(** The first unlabeled argument: the subject of [Mutex.lock m], the task
    of [Par.map ~domains f arr], the target of [x := v]. *)
val first_nolabel :
  (Asttypes.arg_label * Parsetree.expression) list -> Parsetree.expression option

(** Symbolic identity of a lock/atomic/target expression, which names
    mutexes: the dotted ident or field path (["pool.lock"]); [None] for
    array cells, call results and other unnamed values. *)
val sym : Parsetree.expression -> string option

(** Is the expression a literal function (through type constraints)? *)
val is_closure : Parsetree.expression -> bool

(** Does the expression or one of its subexpressions satisfy the
    predicate?  Stops descending at the first hit. *)
val exists_expr : (Parsetree.expression -> bool) -> Parsetree.expression -> bool

(** The fan-out entry point ([Par.map], [Par.map_list], [Par.iter],
    [Domain.spawn]) an alias-expanded path denotes, if any. *)
val par_entry_of_path : string list -> string option

(** Classify an expression as raw shared mutable state: every
    [(location, allocator)] pair found descending through wrappers and data
    constructors.  Empty for deferred allocations (functions, [lazy]) and
    Atomic/Mutex/DLS-wrapped initializers. *)
val d001_hits :
  (string, unit) Hashtbl.t ->
  (Location.t * string) list ->
  Parsetree.expression ->
  (Location.t * string) list

(** The unambiguous IO builtin a dotted path names, if any.  Callers gate
    on empty graph resolution first, so project bindings sharing a
    builtin's name do not classify. *)
val io_of_path : string list -> string option

(** A read-modify-write float update at this site ([t := !t +. x],
    [r.sum <- r.sum +. x]): its description and the head variable of its
    target, for the caller to exempt (per-call locals, closure-bound
    accumulators). *)
val float_acc : Sites.site -> (string * string option) option
