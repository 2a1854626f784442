(** The XML Index Advisor: enumerate → generalize → search → recommend. *)

module Catalog = Xia_index.Catalog
module Index_def = Xia_index.Index_def
module Workload = Xia_workload.Workload

type algorithm =
  | Greedy
  | Greedy_heuristics
  | Top_down_lite
  | Top_down_full
  | Dynamic_programming
  | All_index

val algorithm_name : algorithm -> string

(** The five search algorithms (excludes [All_index]). *)
val all_algorithms : algorithm list

type recommendation = {
  algorithm : algorithm;
  outcome : Search.outcome;
  base_cost : float;
  new_cost : float;
  est_speedup : float;
  general_count : int;
  specific_count : int;
  summary : Workload_summary.info;
      (** what the search ran on: statement/cluster counts and whether the
          workload was compressed *)
}

(** Recommended index definitions. *)
val indexes : recommendation -> Index_def.t list

(** Run one algorithm's search over an evaluator and its candidate set.
    [beta] is Greedy_heuristics' size-expansion threshold (ignored by the
    other algorithms); [All_index] ignores [budget]. *)
val run_search :
  ?beta:float -> Benefit.t -> Candidate.set -> budget:int -> algorithm -> Search.outcome

(** Workloads at or above this many statements are compressed when
    [?compress] is left unset. *)
val compress_threshold : int

(** One-shot recommendation for a workload under a disk budget (bytes).
    The advisor runs on one domain: [domains] is accepted and ignored, only
    because the advisor benchmark still passes [~domains:1].  [compress]
    forces workload compression on or off; unset, it turns on at
    {!compress_threshold} statements. *)
val advise :
  ?beta:float ->
  ?domains:int ->
  ?compress:bool ->
  _ Catalog.t ->
  Workload.t ->
  budget:int ->
  algorithm ->
  recommendation

(** A session reuses the candidate set and the benefit-evaluation cache
    across several budgets and algorithms. *)
type session = { candidates : Candidate.set; evaluator : Benefit.t }

val create_session : ?compress:bool -> _ Catalog.t -> Workload.t -> session

val session_advise :
  ?beta:float -> session -> budget:int -> algorithm -> recommendation

(** Materialize the configuration, run the workload for real, drop the
    indexes; returns (wall seconds, simulated execution cost, result rows). *)
val execute_workload :
  [> `Write ] Catalog.t -> Workload.t -> Index_def.t list -> float * float * int

(** Measured speedup of the configured run over the no-index run: the ratio
    of the deterministic simulated costs of the work actually done. *)
val actual_speedup : [> `Write ] Catalog.t -> Workload.t -> Index_def.t list -> float

val pp_recommendation : Format.formatter -> recommendation -> unit
