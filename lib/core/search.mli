(** Configuration search: the paper's five algorithms plus the All-Index
    reference configuration. *)

type outcome = {
  algorithm : string;
  config : Candidate.t list;
  size : int;               (** estimated total size in bytes *)
  benefit : float;          (** full-evaluation benefit of the final config *)
  optimizer_calls : int;    (** evaluator calls consumed by the search *)
  pruned : int;             (** evaluations skipped by upper-bound pruning *)
  elapsed : float;          (** seconds *)
}

(** Plain greedy on individual benefit density; ignores interaction.

    Candidates are cost-probed lazily: each starts at its
    {!Benefit.atomic_upper_bound} density and is only evaluated exactly when
    it reaches the front of the queue, and candidates that provably cannot
    be admitted (non-positive bound and not plan-used, or no remaining
    budget headroom) are skipped without probing and counted in [pruned].
    The configuration is IDENTICAL to the eager greedy that probes the whole
    pool and sorts it — the bound dominates the exact value and the
    tie-breaking order is shared.  The eager greedy is kept as the test
    oracle ([test/search_oracle.ml]). *)
val greedy : Benefit.t -> Candidate.set -> budget:int -> outcome

(** Greedy with the covered-pattern bitmap and the two general-index
    admission conditions (IB and (1+β) size). *)
val greedy_heuristics :
  ?beta:float -> Benefit.t -> Candidate.set -> budget:int -> outcome

(** Top-down DAG descent: start from the most general candidates and replace
    the one with the smallest ΔB/ΔC by its children until the configuration
    fits.  Lite scores ΔB with individual benefits, Full re-evaluates whole
    configurations.  The search space is built with pruned probes
    ({!Benefit.useful_ids}), Lite substitutes the exact [0. -. mc] shortcut
    for zero-upper-bound candidates, and the greedy fallback drops
    zero-bound candidates without probing.  Outcomes are bit-for-bit those
    of the unpruned descent kept as the test oracle
    ([test/search_oracle.ml]). *)
val top_down_lite : Benefit.t -> Candidate.set -> budget:int -> outcome

val top_down_full : Benefit.t -> Candidate.set -> budget:int -> outcome

(** Exact 0/1 knapsack on individual benefits (optimal modulo interaction). *)
val dynamic_programming : Benefit.t -> Candidate.set -> budget:int -> outcome

(** All basic candidates: an index for every indexable workload pattern. *)
val all_index : Benefit.t -> Candidate.set -> outcome
