(* Exhaustive configuration search over the candidate set.

   Every search algorithm's configuration is a subset of the candidate set
   that fits the budget under [Benefit.candidate_size], so enumerating ALL
   such subsets yields a sound, exact upper bound on every algorithm's
   outcome — including the top-down searches, whose descent can retain
   candidates outside the [useful_ids] probe pool (that near-miss is why
   the oracle does NOT restrict itself to the useful pool).

   The sweep reuses the evaluator the algorithms ran on, so identical
   configurations score bit-for-bit identical benefits (the
   sub-configuration cache serves repeated sub-results), and the benefit
   calls fan out over the evaluator's domains via [Par.map] — positionally
   deterministic, so the reduction below is independent of the domain
   count. *)

module Benefit = Xia_advisor.Benefit
module Candidate = Xia_advisor.Candidate
module Index_def = Xia_index.Index_def
module Obs = Xia_obs.Obs
module Trace = Xia_obs.Trace
module Par = Xia_par.Par

type result = {
  config : Candidate.t list;
  benefit : float;
  size : int;
  pool : int;
  feasible : int;
  optimizer_calls : int;
  elapsed : float;
  benefits : float array;
}

let default_limit = 14

(* Logical keys of a configuration, sorted: the deterministic final
   tie-break (interned ids are allocation-order-dependent and never decide
   a user-visible ordering; the key STRING is stable). *)
let config_keys config =
  List.sort String.compare
    (List.map (fun (c : Candidate.t) -> Index_def.logical_key c.Candidate.def) config)

(* [Benefit.benefit] partitions a configuration into interaction groups in
   first-member order and sums their deltas in that order, so the SAME set
   of candidates listed in two different orders can score low-bit-different
   float benefits.  Ground-truth comparisons must therefore evaluate every
   configuration — the oracle's and each algorithm's — in one canonical
   order, or an algorithm can appear to "beat" the optimum (or fall short
   of it) by a few ulps purely through summation order. *)
let canonical config =
  List.sort
    (fun (a : Candidate.t) (b : Candidate.t) ->
      String.compare
        (Index_def.logical_key a.Candidate.def)
        (Index_def.logical_key b.Candidate.def))
    config

let search ev set ~budget =
  Trace.with_span "eval.exhaustive" @@ fun () ->
  let t0 = Obs.now_s () in
  let calls_before = Benefit.evaluations ev in
  let items =
    List.filter
      (fun c -> Benefit.candidate_size ev c <= budget)
      (Candidate.to_list set)
    |> Array.of_list
  in
  let n = Array.length items in
  if n > default_limit then
    invalid_arg
      (Printf.sprintf
         "Exhaustive.search: %d candidates exceed the small-instance limit %d"
         n default_limit);
  let weights = Array.map (Benefit.candidate_size ev) items in
  (* Feasible masks, ascending.  Mask 0 (the empty configuration, weight 0)
     is always feasible — even under a zero budget the algorithms can and do
     return empty configurations, so the oracle must admit it too. *)
  let feasible_masks =
    let acc = ref [] in
    for mask = (1 lsl n) - 1 downto 0 do
      let w = ref 0 in
      for i = 0 to n - 1 do
        if mask land (1 lsl i) <> 0 then w := !w + weights.(i)
      done;
      if mask = 0 || !w <= budget then acc := mask :: !acc
    done;
    Array.of_list !acc
  in
  let config_of mask =
    let cfg = ref [] in
    for i = n - 1 downto 0 do
      if mask land (1 lsl i) <> 0 then cfg := items.(i) :: !cfg
    done;
    canonical !cfg
  in
  let benefits =
    Par.map ~domains:(Benefit.domains ev)
      (fun mask -> Benefit.benefit ev (config_of mask))
      feasible_masks
  in
  (* Sequential reduction over the positional results: deterministic for any
     domain count.  Ties on benefit prefer smaller size, then fewer indexes,
     then lexicographic logical keys. *)
  let size_of mask = Benefit.config_size ev (config_of mask) in
  let count_of mask =
    let c = ref 0 in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then incr c
    done;
    !c
  in
  let best = ref 0 in
  let best_size = ref (size_of feasible_masks.(0)) in
  for i = 1 to Array.length feasible_masks - 1 do
    let b = benefits.(i) and bb = benefits.(!best) in
    let better =
      if b > bb then true
      else if not (Float.equal b bb) then false
      else begin
        let sz = size_of feasible_masks.(i) in
        if sz <> !best_size then sz < !best_size
        else
          let ci = count_of feasible_masks.(i)
          and cb = count_of feasible_masks.(!best) in
          if ci <> cb then ci < cb
          else
            compare
              (config_keys (config_of feasible_masks.(i)))
              (config_keys (config_of feasible_masks.(!best)))
            < 0
      end
    in
    if better then begin
      best := i;
      best_size := size_of feasible_masks.(i)
    end
  done;
  let config = config_of feasible_masks.(!best) in
  {
    config;
    benefit = benefits.(!best);
    size = !best_size;
    pool = n;
    feasible = Array.length feasible_masks;
    optimizer_calls = Benefit.evaluations ev - calls_before;
    elapsed = Obs.now_s () -. t0;
    benefits;
  }

let rank r benefit =
  let above = benefit +. (1e-9 *. Float.abs benefit) in
  1 + Array.fold_left (fun acc b -> if b > above then acc + 1 else acc) 0 r.benefits
