(** The check catalog.

    Unit-local checks (one compilation unit's sites, {!Sites.unit_sites}):

    - [D001] module-toplevel mutable state: it outlives one advise session
      and leaks between evaluators.
    - [D002] [Sys.time] used for timing (CPU time, not wall-clock).
    - [D004] [Unix.gettimeofday] in [lib/] code outside [lib/obs/]: library
      wall-clock reads must go through [Xia_obs.Obs.now_s].
    - [H001] module without an [.mli] interface (filesystem-level).
    - [H002] [failwith]/[assert false] without a [(* lint: reason *)] note.
    - [R003] non-atomic read-modify-write:
      [Atomic.set x (... Atomic.get x ...)].

    Whole-program checks (interprocedural, queries over the {!Effects}
    summaries and the call lists of {!Sites} on the cross-unit graph):

    - [D003] catalog/store mutation transitively reachable — across
      compilation units — from a binding of a what-if evaluation module:
      what-if evaluation never mutates the catalog.
    - [N001] hash iteration order escaping into a returned/cached result in
      [lib/].
    - [E001] IO effects in [lib/] outside the sanctioned surfaces.
    - [E002] shared-state writes reachable from the virtual-config batch
      path.

    The flow-sensitive check — [X001] skipped restore — is a forward
    may-analysis by an intraprocedural walk of the parsetree, documented
    in {!Dataflow} and DESIGN.md §5k.

    Identifier references are matched on [Longident] paths after
    module-alias expansion through the graph; a reference a local binder
    of the same binding shadows is no call edge, but full name resolution
    (functors, first-class modules, local modules) is out of scope.
    Suppress intentional sites with [\[@lint.allow "ID"\]]. *)

(** Run every unit-local check (D001, D002, D004, H002, R003) on one
    compilation unit: D001 over its module-level bindings, the rest over
    every site of the unit ({!Sites.unit_sites}).  The unit's source text
    honors [(* lint: reason *)] notes; its path selects D004
    applicability.  Attribute suppressions are already applied. *)
val check_unit : Sites.t -> Callgraph.unit_info -> Finding.t list

(** Whole-program D003 over the effect summaries: flags every
    alias-expanded [Catalog.*]/[Doc_store.*] mutator site carried in the
    summary of a binding of a what-if module ([benefit], [optimizer]). *)
val check_d003_program : Sites.t -> Effects.t -> Finding.t list

(** N001: order-dependent folds in [lib/] whose literal closure builds a
    list with no canonicalizing sort in the same binding. *)
val check_n001_program : Sites.t -> Effects.t -> Finding.t list

(** E001: IO sites in [lib/] outside [lib/obs], [lib/analysis] and the
    persistence boundary ([persist]). *)
val check_e001_program : Sites.t -> Effects.t -> Finding.t list

(** E002: shared-state writes in the transitive call closure of
    [optimize_batch], [optimize_prepared] and [optimize_costs] bindings,
    beyond the sanctioned [warm_stats]/optimizer [prepare], [lib/obs] and
    [interner] sites. *)
val check_e002_program : Sites.t -> Effects.t -> Finding.t list

(** [missing_mli ~mls ~mlis] — H001: every [.ml] path with no matching
    [.mli] path (compared by extension-stripped name). *)
val missing_mli : mls:string list -> mlis:string list -> Finding.t list

(** {1 Check metadata} *)

type check_info = {
  id : string;
  title : string;  (** one line; emitted in the [--json] ["checks"] array *)
}

(** Every check, in catalog (ID) order.  Each check's rationale is in
    DESIGN.md §5c, §5f, §5h and §5k. *)
val catalog : check_info list
