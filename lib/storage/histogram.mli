(** Equi-width histograms over numeric path values, built by RUNSTATS from a
    bounded sample and used for range-selectivity estimation. *)

type t

(** The histogram of a sample's finite values: [nan] and infinities are
    neither bounds nor counted.  [None] with fewer than two distinct
    finite values. *)
val create : float list -> t option

(** {!create} over the values of an array. *)
val of_array : float array -> t option

(** The count of finite values. *)
val total : t -> int

val bounds : t -> float * float

(** Fraction of values strictly below [x] (interpolated in the straddled
    bucket); 0 below the range, 1 above. *)
val fraction_below : t -> float -> float

val pp : Format.formatter -> t -> unit
