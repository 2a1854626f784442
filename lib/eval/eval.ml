(* Recommendation-quality evaluation harness.

   Two-evaluator protocol: the algorithms under test search on an evaluator
   whose statements are prepared with index-cost factor [perturb]; ground
   truth (exhaustive optimum, regret scoring) always runs on a second
   evaluator prepared at the default 1.0.  The factor lives in each
   evaluator's prepared statements, so neither sees the other's.  A
   deliberately broken cost model therefore degrades the recommendations,
   never the yardstick — which is exactly what lets the eval ratchet
   (tools/ratchet.ml) fail on quality regressions.

   No IO here: the report renders to a string ([to_json]) or a formatter
   ([pp_case]); printing and file writes live in bin/. *)

module Catalog = Xia_index.Catalog
module Workload = Xia_workload.Workload
module Tpox = Xia_workload.Tpox
module Xmark = Xia_workload.Xmark
module Synthetic = Xia_workload.Synthetic
module Advisor = Xia_advisor.Advisor
module Benefit = Xia_advisor.Benefit
module Candidate = Xia_advisor.Candidate
module Enumeration = Xia_advisor.Enumeration
module Search = Xia_advisor.Search
module Index_def = Xia_index.Index_def
module Obs = Xia_obs.Obs
module Trace = Xia_obs.Trace

type bench = Tpox | Xmark

type spec = {
  s_name : string;
  s_bench : bench;
  s_prefix : int;
  s_synthetic : int;
  s_fracs : float list;
}

(* The committed cases.  Budget fractions are of the case's All-Index size
   and were tuned so that, at the tiny scale, every algorithm recommends a
   non-empty configuration (regret > 0) and the heuristic search stays at
   regret >= 0.9 — the acceptance floor the ratchet then holds. *)
let default_specs =
  [
    {
      s_name = "tpox-small";
      s_bench = Tpox;
      s_prefix = 6;
      s_synthetic = 0;
      s_fracs = [ 0.35; 0.7 ];
    };
    {
      s_name = "xmark-small";
      s_bench = Xmark;
      s_prefix = 6;
      s_synthetic = 0;
      s_fracs = [ 0.35; 0.7 ];
    };
    {
      s_name = "synthetic-small";
      s_bench = Tpox;
      s_prefix = 0;
      s_synthetic = 8;
      s_fracs = [ 0.35; 0.7 ];
    };
  ]

type entry = {
  e_case : string;
  e_frac : float;
  e_budget : int;
  e_algorithm : string;
  e_benefit : float;
  e_optimal : float;
  e_regret : float;
  e_rank : int;
  e_feasible : int;
  e_optimizer_calls : int;
  e_predicted : float;
  e_actual : float;
  e_ratio : float;
}

type case_result = {
  r_case : string;
  r_statements : int;
  r_candidates : int;
  r_pool : int;
  r_entries : entry list;
  r_spearman : float;
  r_elapsed : float;
}

(* Whitespace-free algorithm keys: stable identifiers for the JSON report
   and the keys of ratchet.baseline's eval lines. *)
let algorithm_key = function
  | Advisor.Greedy -> "greedy"
  | Advisor.Greedy_heuristics -> "heuristics"
  | Advisor.Top_down_lite -> "tdlite"
  | Advisor.Top_down_full -> "tdfull"
  | Advisor.Dynamic_programming -> "dp"
  | Advisor.All_index -> "allindex"

(* --- Spearman rank correlation, tie-corrected ------------------------- *)

(* Average ranks: ties share the mean of the rank positions they span. *)
let average_ranks (xs : float array) =
  let n = Array.length xs in
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun i j ->
      let c = Float.compare xs.(i) xs.(j) in
      if c <> 0 then c else Int.compare i j)
    order;
  let ranks = Array.make n 0.0 in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while
      !j + 1 < n && Float.equal xs.(order.(!j + 1)) xs.(order.(!i))
    do
      incr j
    done;
    (* positions !i..!j (0-based) hold equal values: average 1-based rank *)
    let r = (float_of_int (!i + !j) /. 2.0) +. 1.0 in
    for k = !i to !j do
      ranks.(order.(k)) <- r
    done;
    i := !j + 1
  done;
  ranks

let spearman xs ys =
  let n = Array.length xs in
  if n < 2 || Array.length ys <> n then 0.0
  else begin
    let rx = average_ranks xs and ry = average_ranks ys in
    let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int n in
    let mx = mean rx and my = mean ry in
    let sxy = ref 0.0 and sxx = ref 0.0 and syy = ref 0.0 in
    for i = 0 to n - 1 do
      let dx = rx.(i) -. mx and dy = ry.(i) -. my in
      sxy := !sxy +. (dx *. dy);
      sxx := !sxx +. (dx *. dx);
      syy := !syy +. (dy *. dy)
    done;
    if !sxx <= 0.0 || !syy <= 0.0 then 0.0
    else !sxy /. sqrt (!sxx *. !syy)
  end

(* --- Case construction ------------------------------------------------ *)

let build_case ~small spec =
  let catalog = Catalog.create () in
  let bench_workload =
    match spec.s_bench with
    | Tpox ->
        if small then Tpox.load ~scale:Tpox.tiny_scale ~seed:7 catalog
        else Tpox.load ~seed:7 catalog;
        Tpox.workload ()
    | Xmark ->
        if small then Xmark.load ~scale:Xmark.tiny_scale ~seed:7 catalog
        else Xmark.load ~seed:7 catalog;
        Xmark.workload ()
  in
  let tables =
    match spec.s_bench with
    | Tpox -> [ Tpox.security_table; Tpox.custacc_table; Tpox.order_table ]
    | Xmark -> [ Xmark.item_table; Xmark.person_table; Xmark.auction_table ]
  in
  let prefix =
    if spec.s_prefix <= 0 then [] else Workload.prefix spec.s_prefix bench_workload
  in
  let synthetic =
    if spec.s_synthetic <= 0 then []
    else Synthetic.workload ~seed:13 ~label_prefix:spec.s_name catalog tables
        spec.s_synthetic
  in
  (catalog, prefix @ synthetic)

(* --- Scoring ---------------------------------------------------------- *)

let config_fingerprint config =
  String.concat "\x00"
    (List.sort String.compare
       (List.map (fun (c : Candidate.t) -> Index_def.logical_key c.Candidate.def)
          config))

let defs_of config = List.map (fun (c : Candidate.t) -> c.Candidate.def) config

(* Executed (simulated) workload cost of a configuration, memoized per case
   by the configuration's logical fingerprint: several algorithms usually
   agree on a config and the executor pass is the expensive step. *)
let executed_cost memo catalog workload config =
  let key = config_fingerprint config in
  match Hashtbl.find_opt memo key with
  | Some c -> c
  | None ->
      let _wall, cost, _rows =
        Advisor.execute_workload catalog workload (defs_of config)
      in
      Hashtbl.add memo key cost;
      cost

let run_case ~perturb ~small spec =
  Trace.with_span "eval.case" ~args:(fun () -> [ ("case", spec.s_name) ])
  @@ fun () ->
  let t0 = Obs.now_s () in
  let catalog, workload = build_case ~small spec in
  (* Search phase: evaluator and algorithms see the (possibly perturbed)
     cost model. *)
  let search_ev = Benefit.create ~index_cost_factor:perturb catalog workload in
  let set = Enumeration.candidates workload in
  let all_size = Benefit.config_size search_ev (Candidate.basics set) in
  let budgets =
    List.map
      (fun f -> (f, int_of_float (ceil (f *. float_of_int all_size))))
      spec.s_fracs
  in
  let search_outcomes =
    List.map
      (fun (frac, budget) ->
        let outcomes =
          List.map
            (fun alg ->
              (algorithm_key alg, Advisor.run_search search_ev set ~budget alg))
            Advisor.all_algorithms
        in
        (frac, budget, outcomes))
      budgets
  in
  let search_base = Benefit.base_workload_cost search_ev in
  let predicted_of config =
    search_base -. Benefit.workload_cost search_ev config
  in
  (* Scoring phase: ground truth under the unperturbed model. *)
  let truth_ev = Benefit.create catalog workload in
  let _base_wall, base_cost, _rows =
    Advisor.execute_workload catalog workload []
  in
  let memo : (string, float) Hashtbl.t = Hashtbl.create 16 in
  let pool = ref 0 in
  let entries =
    List.concat_map
      (fun (frac, budget, outcomes) ->
        Trace.with_span "eval.validate" ~args:(fun () ->
            [ ("case", spec.s_name); ("budget", string_of_int budget) ])
        @@ fun () ->
        let exh = Exhaustive.search truth_ev set ~budget in
        if exh.Exhaustive.pool > !pool then pool := exh.Exhaustive.pool;
        let score algorithm config optimizer_calls ~predicted =
          (* Canonical order: same-set configurations must score bitwise
             the same benefit as the oracle's enumeration of that set. *)
          let config = Exhaustive.canonical config in
          let benefit = Benefit.benefit truth_ev config in
          let actual =
            base_cost -. executed_cost memo catalog workload config
          in
          {
            e_case = spec.s_name;
            e_frac = frac;
            e_budget = budget;
            e_algorithm = algorithm;
            e_benefit = benefit;
            e_optimal = exh.Exhaustive.benefit;
            e_regret =
              (if exh.Exhaustive.benefit > 0.0 then
                 benefit /. exh.Exhaustive.benefit
               else 1.0);
            e_rank = Exhaustive.rank exh benefit;
            e_feasible = exh.Exhaustive.feasible;
            e_optimizer_calls = optimizer_calls;
            e_predicted = predicted;
            e_actual = actual;
            e_ratio = (if actual > 0.0 then predicted /. actual else -1.0);
          }
        in
        let algorithm_entries =
          List.map
            (fun (key, (outcome : Search.outcome)) ->
              score key outcome.Search.config outcome.Search.optimizer_calls
                ~predicted:(predicted_of outcome.Search.config))
            outcomes
        in
        let truth_base = Benefit.base_workload_cost truth_ev in
        let oracle =
          score "exhaustive" exh.Exhaustive.config
            exh.Exhaustive.optimizer_calls
            ~predicted:
              (truth_base -. Benefit.workload_cost truth_ev exh.Exhaustive.config)
        in
        algorithm_entries @ [ oracle ])
      search_outcomes
  in
  let predicted = Array.of_list (List.map (fun e -> e.e_predicted) entries) in
  let actual = Array.of_list (List.map (fun e -> e.e_actual) entries) in
  {
    r_case = spec.s_name;
    r_statements = Workload.size workload;
    r_candidates = Candidate.cardinality set;
    r_pool = !pool;
    r_entries = entries;
    r_spearman = spearman predicted actual;
    r_elapsed = Obs.now_s () -. t0;
  }

let run ?(perturb = 1.0) ~small specs = List.map (run_case ~perturb ~small) specs

(* --- Rendering -------------------------------------------------------- *)

(* Compact ["name":value] fields with no space after the colon, one entry
   object per line: scrubbable by test/scrub_obs.ml's eval mode (which
   blanks "elapsed"). *)
let entry_json b e =
  Buffer.add_string b
    (Printf.sprintf
       "{\"case\":\"%s\",\"frac\":%.2f,\"budget\":%d,\"algorithm\":\"%s\",\
        \"benefit\":%.3f,\"optimal\":%.3f,\"regret\":%.6f,\"rank\":%d,\
        \"feasible\":%d,\"optimizer_calls\":%d,\"predicted\":%.3f,\
        \"actual\":%.3f,\"ratio\":%.4f}"
       e.e_case e.e_frac e.e_budget e.e_algorithm e.e_benefit e.e_optimal
       e.e_regret e.e_rank e.e_feasible e.e_optimizer_calls e.e_predicted
       e.e_actual e.e_ratio)

let case_json b r =
  Buffer.add_string b
    (Printf.sprintf
       "{\"case\":\"%s\",\"statements\":%d,\"candidates\":%d,\"pool\":%d,\
        \"spearman\":%.4f,\"elapsed\":%.6f,\"entries\":[\n"
       r.r_case r.r_statements r.r_candidates r.r_pool r.r_spearman r.r_elapsed);
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string b ",\n";
      entry_json b e)
    r.r_entries;
  Buffer.add_string b "\n]}"

let to_json ~small ~perturb results =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "{\"eval\":\"advisor-quality\",\"scale\":\"%s\",\
                     \"perturb\":%.2f,\"cases\":[\n"
       (if small then "small" else "default")
       perturb);
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      case_json b r)
    results;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let pp_case ppf r =
  Format.fprintf ppf
    "@[<v>case %s: %d statements, %d candidates, pool %d, spearman %.4f@,"
    r.r_case r.r_statements r.r_candidates r.r_pool r.r_spearman;
  Format.fprintf ppf "  %-11s %5s %10s %7s %5s %6s %6s@," "algorithm" "frac"
    "benefit" "regret" "rank" "calls" "ratio";
  List.iter
    (fun e ->
      Format.fprintf ppf "  %-11s %5.2f %10.3f %7.4f %5d %6d %6.2f@,"
        e.e_algorithm e.e_frac e.e_benefit e.e_regret e.e_rank
        e.e_optimizer_calls e.e_ratio)
    r.r_entries;
  Format.fprintf ppf "@]"
