(** Exhaustive configuration search: the ground-truth optimum for small
    instances.

    Enumerates every budget-feasible subset of the WHOLE candidate set —
    not just the [useful_ids] probe pool, which the top-down searches can
    step outside of — and evaluates each with the full
    {!Xia_advisor.Benefit.benefit} machinery: batched what-if calls,
    sub-configuration cache, [Par] fan-out across the evaluator's domains.
    The result is the true optimum of the search problem, which turns every
    algorithm's outcome into a regret score.  Small instances only: the
    subset count is exponential in the pool size, so {!search} refuses pools
    above {!default_limit}. *)

module Benefit = Xia_advisor.Benefit
module Candidate = Xia_advisor.Candidate

type result = {
  config : Candidate.t list;  (** an optimal feasible configuration *)
  benefit : float;            (** its full-evaluation benefit *)
  size : int;                 (** its estimated size in bytes *)
  pool : int;                 (** candidates enumerated over *)
  feasible : int;             (** budget-feasible subsets evaluated
                                  (including the empty configuration) *)
  optimizer_calls : int;      (** evaluator calls consumed by the sweep *)
  elapsed : float;            (** seconds, via [Obs.now_s] *)
  benefits : float array;     (** benefit of every feasible subset, in
                                  enumeration order (position 0 = empty) *)
}

(** Default pool-size ceiling (2^14 subsets before budget filtering). *)
val default_limit : int

(** Sort a configuration by logical index key.  {!Xia_advisor.Benefit.benefit}
    partitions a configuration into interaction groups in first-member order
    and sums group deltas in that order, so the same candidate SET in two
    list orders can score low-bit-different benefits; every ground-truth
    comparison (the oracle's enumeration and each algorithm's recommendation)
    must evaluate configurations in this one canonical order. *)
val canonical : Candidate.t list -> Candidate.t list

(** [search ev set ~budget] enumerates every subset of the candidate set
    whose total {!Benefit.candidate_size} fits the budget and returns the
    best, under the SAME benefit evaluator the algorithms under test use —
    identical configurations therefore score bit-for-bit identical
    benefits, so the optimum dominates every algorithm's outcome exactly
    (no epsilon).

    Ties on benefit break deterministically: smaller size, then fewer
    indexes, then lexicographic logical keys.

    @raise Invalid_argument when more than {!default_limit} candidates fit
    the budget — exhaustive search is for small instances only. *)
val search : Benefit.t -> Candidate.set -> budget:int -> result

(** [rank r benefit] is 1 + the number of feasible subsets whose benefit
    exceeds [benefit] by more than a relative tolerance of [1e-9]
    ([1e-9 *. |benefit|]): rank 1 means optimal.  Counts over
    [r.benefits], so configurations whose benefits agree within the
    tolerance share a rank.  The tolerance absorbs last-bit differences of
    float sums, which depend on summation order and so on the host; real
    differences between configurations are many orders of magnitude
    larger. *)
val rank : result -> float -> int
