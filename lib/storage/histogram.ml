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

(* The histogram of [total] values spanning [lo, hi], [iter add] adding
   each value; [None] when the span is a single point. *)
let make lo hi total iter =
  if hi <= lo then None
  else begin
    let counts = Array.make buckets 0 in
    let width = (hi -. lo) /. float_of_int buckets in
    iter (fun v ->
        let i = min (buckets - 1) (int_of_float ((v -. lo) /. width)) in
        counts.(i) <- counts.(i) + 1);
    Some { lo; hi; counts; total }
  end

(* Build from a sample; [None] when the sample is empty or degenerate. *)
let create values =
  match values with
  | [] -> None
  | v0 :: _ ->
      make (List.fold_left Float.min v0 values) (List.fold_left Float.max v0 values)
        (List.length values) (fun add -> List.iter add values)

let of_array values =
  if Array.length values = 0 then None
  else
    make
      (Array.fold_left Float.min values.(0) values)
      (Array.fold_left Float.max values.(0) values)
      (Array.length values) (fun add -> Array.iter add values)

(* Fraction of values strictly below [x], with linear interpolation inside
   the straddled bucket. *)
let fraction_below t x =
  if x <= t.lo then 0.0
  else if x >= t.hi then 1.0
  else begin
    let n = Array.length t.counts in
    let width = (t.hi -. t.lo) /. float_of_int n in
    let pos = (x -. t.lo) /. width in
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
    let width = (t.hi -. t.lo) /. float_of_int n in
    let i = min (n - 1) (max 0 (int_of_float ((x -. t.lo) /. width))) in
    float_of_int t.counts.(i) /. float_of_int (max 1 t.total)
  end

let pp ppf t =
  Fmt.pf ppf "hist[%g..%g: %a]" t.lo t.hi
    Fmt.(array ~sep:(any ",") int)
    t.counts
