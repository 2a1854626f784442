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

(** β = 0.10, the size-expansion threshold of the heuristic search. *)
val beta_default : float

(** Plain greedy on individual benefit density; ignores interaction.

    With [~prune:true] (the default) candidates are cost-probed lazily: each
    starts at its {!Benefit.atomic_upper_bound} density and is only
    evaluated exactly when it reaches the front of the queue, and candidates
    that provably cannot be admitted (non-positive bound and not plan-used,
    or no remaining budget headroom) are skipped without probing.  The
    returned configuration is IDENTICAL to [~prune:false] — the bound
    dominates the exact value and the tie-breaking order is shared — only
    [optimizer_calls] drops and [pruned] rises. *)
val greedy : ?prune:bool -> Benefit.t -> Candidate.set -> budget:int -> outcome

(** Greedy with the covered-pattern bitmap and the two general-index
    admission conditions (IB and (1+β) size). *)
val greedy_heuristics :
  ?beta:float -> Benefit.t -> Candidate.set -> budget:int -> outcome

type td_variant = Lite | Full

(** Top-down DAG descent.  With [~prune:true] (the default) the search space
    is built with pruned probes ({!Benefit.useful_ids}), the Lite variant
    substitutes the exact [0. -. mc] shortcut for zero-upper-bound
    candidates, and the greedy fallback drops zero-bound candidates without
    probing.  Outcomes are identical to [~prune:false] bit-for-bit. *)
val top_down :
  ?variant:td_variant -> ?prune:bool -> Benefit.t -> Candidate.set -> budget:int -> outcome

val top_down_lite : ?prune:bool -> Benefit.t -> Candidate.set -> budget:int -> outcome
val top_down_full : ?prune:bool -> Benefit.t -> Candidate.set -> budget:int -> outcome

(** Exact 0/1 knapsack on individual benefits (optimal modulo interaction). *)
val dynamic_programming : Benefit.t -> Candidate.set -> budget:int -> outcome

(** All basic candidates: an index for every indexable workload pattern. *)
val all_index : Benefit.t -> Candidate.set -> outcome

val pp_outcome : Format.formatter -> outcome -> unit
