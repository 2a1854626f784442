(** Recommendation-quality evaluation harness.

    For each committed case (a small catalog + workload), every search
    algorithm runs at several disk budgets and is scored against ground
    truth on two axes:

    - {b regret}: the recommended configuration's full-evaluation benefit
      divided by the exhaustive optimum ({!Exhaustive.search}), plus the
      recommendation's rank among all budget-feasible subsets;
    - {b executor validation}: the recommended indexes are materialized
      ({!Xia_index.Catalog.create_index}) and the workload executed for
      real; the predicted cost improvement is compared with the measured
      (simulated-cost) improvement, summarized per case as a tie-corrected
      Spearman rank correlation — the cost-model-drift detector.

    Search runs under {!Xia_optimizer.Optimizer.index_cost_factor} =
    [perturb]; scoring always runs under the unperturbed model, so a
    perturbed (deliberately broken) cost model shows up as regret < 1, not
    as a shifted yardstick.  All reported numbers except [elapsed] are
    deterministic — the quality ratchet ([tools/ratchet.ml]) compares
    them against the eval lines of [ratchet.baseline]. *)

module Catalog = Xia_index.Catalog
module Workload = Xia_workload.Workload

type bench = Tpox | Xmark

(** One committed evaluation case: benchmark catalog, workload prefix,
    appended synthetic queries, and budget fractions of the case's
    All-Index size. *)
type spec = {
  s_name : string;
  s_bench : bench;
  s_prefix : int;      (** benchmark queries taken, from the front (0 = none) *)
  s_synthetic : int;   (** synthetic random-path queries appended *)
  s_fracs : float list;
}

(** The committed cases the ratchet and the CLI run: small TPoX, small
    XMark, and a synthetic workload over the TPoX catalog. *)
val default_specs : spec list

(** Per (case × budget × algorithm) scores.  [e_algorithm] is a short
    whitespace-free key ([greedy], [heuristics], [tdlite], [tdfull], [dp],
    or [exhaustive] for the oracle's own row). *)
type entry = {
  e_case : string;
  e_frac : float;            (** budget as a fraction of All-Index size *)
  e_budget : int;            (** bytes *)
  e_algorithm : string;
  e_benefit : float;         (** ground-truth benefit of the recommendation *)
  e_optimal : float;         (** exhaustive optimum benefit *)
  e_regret : float;          (** [e_benefit /. e_optimal]; 1.0 when the
                                 optimum is non-positive *)
  e_rank : int;              (** 1 = optimal among feasible subsets *)
  e_feasible : int;          (** feasible subsets at this budget *)
  e_optimizer_calls : int;   (** evaluator calls the search consumed *)
  e_predicted : float;       (** predicted cost improvement (search model) *)
  e_actual : float;          (** executed simulated-cost improvement *)
  e_ratio : float;           (** predicted/actual; [-1.] when actual <= 0 *)
}

type case_result = {
  r_case : string;
  r_statements : int;
  r_candidates : int;        (** candidate-set cardinality *)
  r_pool : int;              (** candidates the oracle enumerates over *)
  r_entries : entry list;
  r_spearman : float;        (** predicted vs actual over the case's entries *)
  r_elapsed : float;         (** seconds, via [Obs] — the only
                                 non-deterministic field *)
}

(** Tie-corrected Spearman rank correlation of two equal-length samples
    (average ranks for ties; 0 on degenerate inputs). *)
val spearman : float array -> float array -> float

(** Run the cases.  [perturb] (default 1.0) is applied to
    {!Xia_optimizer.Optimizer.index_cost_factor} for the search phase only
    and the factor is reset to 1.0 before scoring; [small] selects the tiny
    benchmark scale.  The searches all run on one evaluator per case, in
    {!Xia_advisor.Advisor.all_algorithms} order. *)
val run :
  ?perturb:float -> small:bool -> spec list -> case_result list

(** Machine-readable report: envelope plus one compact object per entry
    line (fields are emitted as ["name":value] with no space, like the
    trace/metrics exports), read by [tools/ratchet.ml]. *)
val to_json : small:bool -> perturb:float -> case_result list -> string

val pp_case : Format.formatter -> case_result -> unit
