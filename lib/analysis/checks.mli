(** The check catalog.

    Every check is unit-local (one compilation unit's sites or one
    module-level binding's, both from {!Sites.walk}):

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

    That what-if evaluation never writes the catalog, and that batched
    what-if planning reads none, is not a check: the compiler enforces it,
    because every what-if interface takes a catalog without its write
    capability ({!Xia_index.Catalog.read_only}) and the batch entry points
    ({!Xia_optimizer.Optimizer.optimize_costs}) take no catalog.

    Identifier references are matched on [Longident] paths as written.
    E001 treats a reference as the unit's own binding when a pattern of
    the same binding or a module-level binding of the unit binds its
    name; full name resolution (aliases, opens, functors, first-class
    modules) is out of scope.
    Suppress intentional sites with [\[@lint.allow "ID"\]]. *)

(** Walk one compilation unit ({!Sites.walk}) and run every unit-local
    check (D001, D002, D004, E001, H002, N001, R003, X001) on it, sorted:
    D001 over its module-level bindings, X001, E001 and N001 over each
    such binding's own sites, the rest over every site of the unit.  The
    unit's source text honors [(* lint: reason *)] notes; its path selects
    D004, E001 and N001 applicability. *)
val check_unit : Sites.unit_info -> Finding.t list

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
