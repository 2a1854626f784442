(** The check catalog.

    Unit-local checks (one compilation unit's sites, {!Sites.unit_sites},
    or one binding's, {!Sites.node_sites}):

    - [D001] module-toplevel mutable state: it outlives one advise session
      and leaks between evaluators.
    - [D002] [Sys.time] used for timing (CPU time, not wall-clock).
    - [D004] [Unix.gettimeofday] in [lib/] code outside [lib/obs/]: library
      wall-clock reads must go through [Xia_obs.Obs.now_s].
    - [H001] module without an [.mli] interface (filesystem-level).
    - [H002] [failwith]/[assert false] without a [(* lint: reason *)] note.
    - [R003] non-atomic read-modify-write:
      [Atomic.set x (... Atomic.get x ...)].
    - [X001] a save ([let v = Atomic.get x] / [let v = !x]) that the same
      binding restores ([Atomic.set x v] / [x := v]), not in the one
      exception-safe shape: assignments of identifiers or constants to
      [x], then [Fun.protect ~finally:(fun () -> <the restore>) body].
    - [E001] IO effects in [lib/] outside the sanctioned surfaces
      ([lib/obs], [lib/analysis] and the persistence boundary,
      [persist]).
    - [N001] hash iteration order escaping into a returned/cached result in
      [lib/]: an order-dependent fold whose literal closure builds a list,
      with no canonicalizing sort in the same binding.

    The whole-program check (interprocedural, a {!Callgraph.reach} query
    over the call lists of {!Sites} on the cross-unit graph):

    - [E002] shared-state writes in the transitive call closure of
      [optimize_batch], [optimize_prepared] and [optimize_costs] bindings,
      beyond the sanctioned [warm_stats]/optimizer [prepare], [lib/obs]
      and [interner] sites.

    That what-if evaluation never writes the catalog is not a check: the
    compiler enforces it, because every what-if interface takes a catalog
    without its write capability ({!Xia_index.Catalog.read_only}).

    Identifier references are matched on [Longident] paths after
    module-alias expansion through the graph; a reference a local binder
    of the same binding shadows is no call edge, but full name resolution
    (functors, first-class modules, local modules) is out of scope.
    Suppress intentional sites with [\[@lint.allow "ID"\]]. *)

(** Run every unit-local check (D001, D002, D004, E001, H002, N001, R003,
    X001) on one compilation unit: D001 over its module-level bindings,
    X001, E001 and N001 over each such binding's own sites
    ({!Sites.node_sites}), the rest over every site of the unit
    ({!Sites.unit_sites}).  The unit's source text honors
    [(* lint: reason *)] notes; its path selects D004, E001 and N001
    applicability.  Attribute suppressions are already applied. *)
val check_unit : Sites.t -> Callgraph.unit_info -> Finding.t list

(** The whole-program check, E002: a {!Callgraph.reach} query over
    {!Sites.calls} that classifies the own sites of every binding it
    enters. *)
val check_program : Sites.t -> Finding.t list

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
