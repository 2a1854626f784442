(** Observability master switch and clock.

    The advisor pipeline is instrumented with {!Trace} spans and {!Metrics}
    updates, all gated on {!on}.  With the flag off (the default) the
    instrumentation is a single load per site; with it on, spans and metric
    updates record into the trace buffer and the metrics registry.

    Behavior is identical either way: instrumentation only ever reads the
    clock and bumps observability state, never advisor state.  The
    differential suite in [test/test_obs.ml] locks this in. *)

val on : unit -> bool
(** The master switch.  Off by default. *)

val set_enabled : bool -> unit

val with_enabled : bool -> (unit -> 'a) -> 'a
(** [with_enabled v f] runs [f] with the switch forced to [v], restoring the
    previous state afterwards (exception-safe). *)

val now_s : unit -> float
(** Wall-clock seconds ([Unix.gettimeofday]).  The only sanctioned clock for
    library code: lint check D004 forbids direct [Unix.gettimeofday] use in
    [lib/] outside [lib/obs/]. *)
