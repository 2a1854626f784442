(** The check catalog.

    Unit-local checks (one compilation unit's parsetree):

    - [D001] module-toplevel mutable state not wrapped in
      Atomic/Domain.DLS/Mutex/Lazy (domain-safety).
    - [D002] [Sys.time] used for timing (CPU time, not wall-clock).
    - [D004] [Unix.gettimeofday] in [lib/] code outside [lib/obs/]: library
      wall-clock reads must go through [Xia_obs.Obs.now_s].
    - [H001] module without an [.mli] interface (filesystem-level).
    - [H002] [failwith]/[assert false] without a [(* lint: reason *)] note.
    - [R003] non-atomic read-modify-write:
      [Atomic.set x (... Atomic.get x ...)].

    Whole-program checks (interprocedural, queries over the {!Effects}
    summaries computed on the cross-unit call graph built by {!Callgraph}):

    - [D003] catalog/store mutation transitively reachable — across
      compilation units — from a binding of a what-if evaluation module,
      enforcing PR 1's reentrancy contract.
    - [N001] hash iteration order escaping into a returned/cached result in
      [lib/].
    - [E001] IO effects in [lib/] outside the sanctioned surfaces.
    - [E002] shared-state writes reachable from the virtual-config batch
      path.
    - [R001] mutable state reachable from a parallel task and [N002]
      (order-fragile parallel float reduction); implemented in {!Races}.

    Flow-sensitive checks (a forward may-analysis over an intraprocedural
    CFG with explicit exceptional edges; implemented in {!Dataflow},
    semantics in DESIGN.md §5k):

    - [R002] inconsistent mutex acquisition order: a mutex locked (directly
      or by a callee resolved through the graph) while another is held on
      some path, when the opposite nesting occurs elsewhere; re-locking a
      mutex held on some path is a self-deadlock.
    - [L001] blocking effect ([PerformsIO] or an [Optimizer.optimize*]
      entry) reachable while a mutex is held.
    - [L002] mutex acquired with an exceptional path to exit that never
      unlocks it (bare lock/unlock pairs not wrapped in a
      [Fun.protect]-style finalizer).
    - [X001] save/restore idiom whose restore is skipped on some
      exceptional path.
    - [X002] double unlock / unlock-without-lock on some path.

    Identifier references are matched on [Longident] paths after
    module-alias expansion through the graph; full name resolution
    (shadowing, functors, first-class modules) is out of scope.  Suppress
    intentional sites with [\[@lint.allow "ID"\]] or an allow-file entry. *)

(** Run every unit-local parsetree check (D001, D002, D004, H002, R003) on one
    compilation unit.  [source] is the raw file text, used to honor
    [(* lint: reason *)] notes; [filename] selects D004 applicability.
    Attribute suppressions are already applied; allow-file suppression is the
    caller's job. *)
val check_structure :
  filename:string ->
  source:string ->
  Parsetree.structure ->
  Finding.t list

(** Whole-program D003 over the effect summaries: flags every
    alias-expanded [Catalog.*]/[Doc_store.*] mutator site carried in the
    summary of a binding of a what-if module ([benefit], [optimizer]). *)
val check_d003_program : Effects.t -> Callgraph.t -> Finding.t list

(** N001: order-dependent folds in [lib/] whose literal closure builds a
    list with no canonicalizing sort in the same binding. *)
val check_n001_program : Effects.t -> Callgraph.t -> Finding.t list

(** E001: IO sites in [lib/] outside [lib/obs], [lib/analysis] and the
    persistence boundary ([persist]). *)
val check_e001_program : Effects.t -> Callgraph.t -> Finding.t list

(** E002: shared-state writes in the transitive call closure of
    [optimize_batch], [optimize_prepared] and [optimize_costs] bindings,
    beyond the sanctioned [warm_stats]/optimizer [prepare]/lock-disciplined
    sites. *)
val check_e002_program : Effects.t -> Callgraph.t -> Finding.t list

(** [missing_mli ~mls ~mlis] — H001: every [.ml] path with no matching
    [.mli] path (compared by extension-stripped name). *)
val missing_mli : mls:string list -> mlis:string list -> Finding.t list

(** {1 Check metadata} *)

type check_info = {
  id : string;
  title : string;   (** one line; emitted in the [--json] ["checks"] array *)
  detail : string;  (** the [--explain ID] text *)
}

(** Every check, in catalog (ID) order. *)
val catalog : check_info list

val find_check : string -> check_info option

(** [select ~only ~skip] — the check IDs to run, in catalog order: the
    catalog intersected with [only] (everything when empty) minus [skip].
    Any ID unknown to the catalog is an error. *)
val select :
  only:string list -> skip:string list -> (string list, string) result
