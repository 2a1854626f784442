(** Named counters, gauges and fixed-bucket latency histograms.

    Instruments are registered once by name — re-requesting a name returns
    the existing instrument, requesting it with a different kind raises
    [Invalid_argument] — and every registered instrument appears in
    {!snapshot}.

    The instruments themselves are unconditional.  Instrumentation sites in
    the advisor gate their updates on [Obs.on ()] so the disabled path costs
    a single load. *)

type counter
type gauge
type histogram

val counter : string -> counter
val gauge : string -> gauge

val histogram : ?bounds_us:float array -> string -> histogram
(** [histogram name] registers a latency histogram.  [bounds_us] are the
    strictly-increasing bucket upper bounds in microseconds (default spans
    1us – 1s); an implicit overflow bucket is appended.  [bounds_us] is
    ignored when [name] is already registered. *)

val incr : counter -> unit
val add : counter -> int -> unit

val set : gauge -> float -> unit

(** [observe_s h s] records a latency of [s] seconds. *)
val observe_s : histogram -> float -> unit

val observe : histogram -> float -> unit
(** [observe h v] records [v] as-is against the registered bounds: a
    latency in microseconds, or a unitless sample (batch sizes, counts).
    Pass explicit [bounds_us] at registration for a unitless sample so the
    default latency bounds don't misbucket it. *)

type snapshot_value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of { count : int; sum_us : int; buckets : (float * int) list }
      (** [buckets] pairs each upper bound (us; [infinity] for the overflow
          bucket) with its own count (not cumulative). *)

val snapshot : unit -> (string * snapshot_value) list
(** Every registered metric with its current value, sorted by name. *)

val to_json : (string * snapshot_value) list -> string
(** Serialize a snapshot: one JSON object per metric per line, inside a
    [{"metrics":[...]}] wrapper, so fixtures diff line-by-line. *)
