(** Equi-width histograms over numeric path values, built by RUNSTATS from a
    bounded sample and used for range-selectivity estimation. *)

type t

(** Bucket count of every histogram. *)
val buckets : int

(** [None] on an empty or single-point sample. *)
val create : float list -> t option

(** {!create} over the values of an array. *)
val of_array : float array -> t option

val bucket_count : t -> int
val total : t -> int
val bounds : t -> float * float

(** Fraction of values strictly below [x] (interpolated in the straddled
    bucket); 0 below the range, 1 above. *)
val fraction_below : t -> float -> float

(** Fraction of values in [\[x, y)]. *)
val fraction_between : t -> float -> float -> float

(** Share of the bucket straddling [x]. *)
val point_density : t -> float -> float

val pp : Format.formatter -> t -> unit
