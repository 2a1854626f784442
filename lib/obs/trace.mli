(** Nestable spans with monotonized timestamps.

    A span is opened and closed by {!with_span} around the traced code;
    closed spans accumulate in one buffer and {!flush} returns them in
    chronological order.  Timestamps are clamped so that they never
    decrease, which makes the flushed output well-nested and monotonic by
    construction (property tested in [test/test_obs.ml]).

    All entry points are no-ops while {!Obs.on} is off. *)

type span = {
  name : string;
  args : (string * string) list;
  seq : int;  (** close order (1-based) *)
  open_seq : int;
      (** open order (1-based), the {!flush} order: two spans can carry the
          same (monotonized) [start_s] when the clock does not advance
          between opens, and close order would put a child before its
          parent there — open order is the chronological order regardless
          of clock granularity. *)
  depth : int;  (** nesting depth at open time; 0 = toplevel *)
  start_s : float;
  stop_s : float;
}

val with_span : ?args:(unit -> (string * string) list) -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f], recording a span around it when tracing is
    enabled.  [args] is evaluated once, at span close, and only when tracing
    is enabled — pass a closure over whatever state describes the work.
    Exception-safe: the span closes even if [f] raises. *)

val timed : ?args:(unit -> (string * string) list) -> string -> (unit -> 'a) -> 'a * float
(** [timed name f] is [(f (), elapsed_seconds)], additionally recorded as a
    span when tracing is enabled.  The shared timing helper for bench / CLI /
    test code that needs the duration regardless of tracing state. *)

val flush : unit -> span list
(** Drain the buffer and return its spans in open order, which is start
    time order, deterministic however coarse the clock.  Spans are removed:
    a second flush returns only spans recorded in between. *)

val export_chrome : span list -> string
(** Chrome [trace_event] JSON (one complete event per span, microsecond
    timestamps); load into chrome://tracing or ui.perfetto.dev. *)

val write_file : string -> string -> unit
(** [write_file path contents] writes [contents] to [path] (truncating). *)
