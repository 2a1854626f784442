(* Equi-width histograms over numeric path values.

   RUNSTATS keeps a bounded sample of each path's numeric values and builds a
   small equi-width histogram from it; the optimizer then estimates range
   selectivities from bucket densities instead of assuming one uniform
   distribution between min and max — which matters for skewed values. *)

type t = {
  lo : float;
  hi : float;
  counts : int array;  (* bucket i covers [lo + i*w, lo + (i+1)*w) *)
  total : int;
}

let buckets = 16

let bucket_count t = Array.length t.counts
let total t = t.total
let bounds t = (t.lo, t.hi)

(* [v]'s offset from [lo] in widths of [n] equal buckets over finite
   [lo, hi].  A span over [max_float] overflows to [inf]: there every
   operand is halved, which keeps widths and offsets finite. *)
let[@inline] position lo hi n v =
  let span = hi -. lo in
  if Float.is_finite span then (v -. lo) /. (span /. float_of_int n)
  else ((v *. 0.5) -. (lo *. 0.5)) /. (((hi *. 0.5) -. (lo *. 0.5)) /. float_of_int n)

(* The histogram of the finite values [iter add] adds, spanning [lo, hi]
   (their bounds): a [nan] or an infinity has no bucket, so it is neither
   a bound nor counted, and [total] is the finite count.  [None] when the
   span is a single point or empty. *)
let make lo hi iter =
  if not (hi > lo) then None
  else begin
    let counts = Array.make buckets 0 in
    iter (fun v ->
        if Float.is_finite v then begin
          let i = min (buckets - 1) (int_of_float (position lo hi buckets v)) in
          counts.(i) <- counts.(i) + 1
        end);
    Some { lo; hi; counts; total = Array.fold_left ( + ) 0 counts }
  end

(* [0.] = [-0.], so the sign bit breaks that tie: a sample holding both has
   bounds [-0.] below and [0.] above, whatever their order. *)
let lower lo v = if Float.is_finite v && (v < lo || (v = lo && Float.sign_bit v)) then v else lo
let upper hi v = if Float.is_finite v && (v > hi || (v = hi && not (Float.sign_bit v))) then v else hi

(* RUNSTATS asks for the histogram of every path, most with an empty
   sample: that answer allocates nothing. *)
let create = function
  | [] -> None
  | values ->
      make (List.fold_left lower infinity values) (List.fold_left upper neg_infinity values)
        (fun add -> List.iter add values)

let of_array values =
  make (Array.fold_left lower infinity values) (Array.fold_left upper neg_infinity values)
    (fun add -> Array.iter add values)

(* Fraction of values strictly below [x], with linear interpolation inside
   the straddled bucket. *)
let fraction_below t x =
  if x <= t.lo then 0.0
  else if x >= t.hi then 1.0
  else begin
    let n = Array.length t.counts in
    let pos = position t.lo t.hi n x in
    let full = int_of_float pos in
    let partial = pos -. float_of_int full in
    let below = ref 0.0 in
    for i = 0 to min (n - 1) (full - 1) do
      below := !below +. float_of_int t.counts.(i)
    done;
    if full < n then below := !below +. (partial *. float_of_int t.counts.(full));
    !below /. float_of_int (max 1 t.total)
  end

(* Fraction of values in [x, y) — clamped, y >= x. *)
let fraction_between t x y =
  Float.max 0.0 (fraction_below t y -. fraction_below t x)

(* Density around a point: the straddling bucket's share, used as an upper
   bound for equality fractions. *)
let point_density t x =
  if x < t.lo || x > t.hi then 0.0
  else begin
    let n = Array.length t.counts in
    let i = min (n - 1) (max 0 (int_of_float (position t.lo t.hi n x))) in
    float_of_int t.counts.(i) /. float_of_int (max 1 t.total)
  end

let pp ppf t =
  Fmt.pf ppf "hist[%g..%g: %a]" t.lo t.hi
    Fmt.(array ~sep:(any ",") int)
    t.counts
