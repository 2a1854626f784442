(* The XML Index Advisor: end-to-end recommendation pipeline.

   enumerate (optimizer, Enumerate Indexes mode)
     → generalize (fixpoint + DAG)
     → search (one of five algorithms, under a disk budget)
     → recommendation with estimated speedup and optimizer-call accounting. *)

module Catalog = Xia_index.Catalog
module Index_def = Xia_index.Index_def
module Workload = Xia_workload.Workload
module Executor = Xia_optimizer.Executor

let log_src = Logs.Src.create "xia.advisor" ~doc:"XML Index Advisor phases"

module Log = (val Logs.src_log log_src)

(* Wall-clock: with parallel evaluation, CPU time would overstate elapsed.
   Each phase also records a trace span when observability is enabled. *)
let timed what f =
  let r, dt = Xia_obs.Trace.timed ("advisor." ^ what) f in
  Log.info (fun m -> m "%s: %.3fs" what dt);
  r

type algorithm =
  | Greedy
  | Greedy_heuristics
  | Top_down_lite
  | Top_down_full
  | Dynamic_programming
  | All_index

let algorithm_name = function
  | Greedy -> "greedy"
  | Greedy_heuristics -> "greedy+heuristics"
  | Top_down_lite -> "top-down lite"
  | Top_down_full -> "top-down full"
  | Dynamic_programming -> "dynamic programming"
  | All_index -> "all index"

let all_algorithms =
  [ Greedy; Greedy_heuristics; Top_down_lite; Top_down_full; Dynamic_programming ]

type recommendation = {
  algorithm : algorithm;
  outcome : Search.outcome;
  base_cost : float;       (* workload cost with no indexes *)
  new_cost : float;        (* workload cost under the recommendation *)
  est_speedup : float;     (* base / new *)
  general_count : int;
  specific_count : int;
  summary : Workload_summary.info;  (* what the search actually ran on *)
}

let indexes r = List.map (fun c -> c.Candidate.def) r.outcome.Search.config

let run_search ?beta ev set ~budget = function
  | Greedy -> Search.greedy ev set ~budget
  | Greedy_heuristics -> Search.greedy_heuristics ?beta ev set ~budget
  | Top_down_lite -> Search.top_down_lite ev set ~budget
  | Top_down_full -> Search.top_down_full ev set ~budget
  | Dynamic_programming -> Search.dynamic_programming ev set ~budget
  | All_index -> Search.all_index ev set

let summarize ev algorithm (outcome : Search.outcome) =
  let base_cost = Benefit.base_workload_cost ev in
  let new_cost = Benefit.workload_cost ev outcome.Search.config in
  let general_count =
    List.length (List.filter Candidate.is_general outcome.Search.config)
  in
  {
    algorithm;
    outcome;
    base_cost;
    new_cost;
    est_speedup = (if new_cost > 0.0 then base_cost /. new_cost else 1.0);
    general_count;
    specific_count = List.length outcome.Search.config - general_count;
    summary = Workload_summary.info (Benefit.summary ev);
  }

(* Workloads at or above this size are compressed by default ([?compress]
   unset): below it, the clustering pass costs more bookkeeping than the
   probes it saves; above it, repetition is the common case.  Explicit
   [~compress:(Some _)] always wins. *)
let compress_threshold = 256

let resolve_compress compress workload =
  match compress with
  | Some b -> b
  | None -> List.length workload >= compress_threshold

let summarize_workload ~compress catalog workload =
  if compress then
    timed "workload compression" (fun () ->
        Workload_summary.compress catalog workload)
  else Workload_summary.raw workload

(* Shared-candidate sessions for sweeps: reuse the candidate set and
   evaluator across budgets/algorithms (the sub-configuration cache carries
   over, as in a long-running advisor session).  The candidate set is
   enumerated over the summary's REPRESENTATIVE workload — affected-set
   indices must index the evaluator's statement array — which yields the
   same candidate definitions as the full workload (clustered statements
   share their signature, hence their enumerated patterns). *)
type session = { candidates : Candidate.set; evaluator : Benefit.t }

let create_session ?domains ?compress catalog workload =
  let compress = resolve_compress compress workload in
  let summary = summarize_workload ~compress catalog workload in
  let candidates =
    timed "enumerate+generalize" (fun () ->
        Enumeration.candidates catalog (Workload_summary.workload summary))
  in
  Log.info (fun m ->
      m "candidates: %d basic, %d total"
        (List.length (Candidate.basics candidates))
        (Candidate.cardinality candidates));
  let evaluator =
    timed "base cost evaluation" (fun () ->
        Benefit.of_summary ?domains catalog summary)
  in
  { candidates; evaluator }

(* One-shot advise: a session searched once. *)
let advise ?beta ?domains ?compress catalog workload ~budget algorithm =
  Xia_obs.Trace.with_span "advisor.advise"
    ~args:(fun () -> [ ("algorithm", algorithm_name algorithm) ])
    (fun () ->
      let session = create_session ?domains ?compress catalog workload in
      let outcome =
        timed (algorithm_name algorithm) (fun () ->
            run_search ?beta session.evaluator session.candidates ~budget algorithm)
      in
      summarize session.evaluator algorithm outcome)

let session_advise ?beta session ~budget algorithm =
  Xia_obs.Trace.with_span "advisor.session_advise"
    ~args:(fun () -> [ ("algorithm", algorithm_name algorithm) ])
    (fun () ->
      let outcome =
        run_search ?beta session.evaluator session.candidates ~budget
          algorithm
      in
      summarize session.evaluator algorithm outcome)

(* Actually materialize a configuration, run the workload, drop the indexes
   again; returns total wall-clock seconds and simulated I/O. *)
let execute_workload catalog (workload : Workload.t) defs =
  Catalog.drop_all_indexes catalog;
  List.iter (fun def -> ignore (Catalog.create_index catalog def)) defs;
  let wall = ref 0.0 and cost = ref 0.0 and rows = ref 0 in
  List.iter
    (fun (item : Workload.item) ->
      let r = Executor.run_statement catalog item.statement in
      wall := !wall +. (item.freq *. r.Executor.wall_seconds);
      cost := !cost +. (item.freq *. r.Executor.metrics.Executor.simulated_cost);
      rows := !rows + r.Executor.rows)
    workload;
  Catalog.drop_all_indexes catalog;
  (!wall, !cost, !rows)

(* Actual speedup: measured ratio between the no-index run and the configured
   run, in the deterministic simulated cost of the work actually performed
   (pages touched, nodes navigated). *)
let actual_speedup catalog workload defs =
  let _, cost0, _ = execute_workload catalog workload [] in
  let _, cost1, _ = execute_workload catalog workload defs in
  if cost1 > 0.0 then cost0 /. cost1 else 1.0

let pp_recommendation ppf r =
  Fmt.pf ppf "%s: %d indexes (%d general, %d specific), size=%d, est speedup %.2fx@."
    (algorithm_name r.algorithm)
    (List.length r.outcome.Search.config)
    r.general_count r.specific_count r.outcome.Search.size r.est_speedup;
  List.iter
    (fun (c : Candidate.t) ->
      Fmt.pf ppf "  CREATE INDEX %a@." Index_def.pp c.Candidate.def)
    r.outcome.Search.config
