(* Recommendation-quality evaluation harness (lib/eval) tests.

   - Oracle soundness: the exhaustive optimum dominates every search
     algorithm's outcome EXACTLY (same evaluator, same feasibility, shared
     sub-configuration cache — no epsilon), across synthetic instances
     and budgets; and whenever the useful pool has no index
     interaction, dynamic programming matches the optimum under its own
     rounded-unit feasibility (modulo float-summation order), found by
     test/search_oracle.ml's knapsack enumerator.
   - Committed cases: every algorithm's regret on the default eval specs is
     in (0, 1], the heuristic search stays at >= 0.9, and the oracle rows
     are exactly optimal.
   - Perturbation: a broken search-phase cost model collapses regret while
     ground truth stands still — the quality ratchet's failure mode — and
     a perturbed evaluator and a plain one built side by side each cost
     as if alone.
   - Spearman: tie-corrected rank correlation unit cases. *)

module A = Xia_advisor.Advisor
module B = Xia_advisor.Benefit
module C = Xia_advisor.Candidate
module S = Xia_advisor.Search
module En = Xia_advisor.Enumeration
module Cat = Xia_index.Catalog
module W = Xia_workload.Workload
module Synthetic = Xia_workload.Synthetic
module Eval = Xia_eval.Eval
module Ex = Xia_eval.Exhaustive

let tc name f = Alcotest.test_case name `Quick f

(* ---------- spearman ----------------------------------------------------- *)

let close a b = Float.abs (a -. b) < 1e-9

let spearman_tests =
  [
    tc "perfect monotone = 1" (fun () ->
        Alcotest.(check bool) "rho" true
          (close 1.0 (Eval.spearman [| 1.; 2.; 3.; 4. |] [| 10.; 20.; 30.; 40. |])));
    tc "reversed = -1" (fun () ->
        Alcotest.(check bool) "rho" true
          (close (-1.0) (Eval.spearman [| 1.; 2.; 3. |] [| 9.; 5.; 1. |])));
    tc "ties share average ranks" (fun () ->
        (* xs has a tie on the middle pair; ys orders them apart: rho must be
           strictly between 0 and 1 and symmetric in the tied pair. *)
        let rho = Eval.spearman [| 1.; 2.; 2.; 4. |] [| 1.; 2.; 3.; 4. |] in
        let rho' = Eval.spearman [| 1.; 2.; 2.; 4. |] [| 1.; 3.; 2.; 4. |] in
        Alcotest.(check bool) "0 < rho < 1" true (rho > 0.0 && rho < 1.0);
        Alcotest.(check bool) "tie-symmetric" true (close rho rho'));
    tc "degenerate inputs = 0" (fun () ->
        Alcotest.(check bool) "constant" true
          (close 0.0 (Eval.spearman [| 3.; 3.; 3. |] [| 1.; 2.; 3. |]));
        Alcotest.(check bool) "short" true
          (close 0.0 (Eval.spearman [| 1. |] [| 2. |])));
  ]

(* ---------- exhaustive oracle -------------------------------------------- *)

let exhaustive_unit_tests =
  [
    tc "zero budget admits exactly the empty configuration" (fun () ->
        let catalog = Lazy.force Helpers.shared_catalog in
        let wl = W.prefix 3 (Xia_workload.Tpox.workload ()) in
        let set = En.candidates wl in
        let ev = B.create catalog wl in
        let r = Ex.search ev set ~budget:0 in
        Alcotest.(check int) "config" 0 (List.length r.Ex.config);
        Alcotest.(check int) "feasible" 1 r.Ex.feasible;
        Alcotest.(check bool) "benefit" true (Float.equal 0.0 r.Ex.benefit);
        Alcotest.(check int) "rank of 0" 1 (Ex.rank r 0.0));
    tc "rank ignores last-bit differences from the optimum" (fun () ->
        (* synthetic-small at the 0.70 budget: summation order alone moves
           the optimum's last bits from host to host *)
        let opt = 103184.198 in
        let r =
          { Ex.config = []; benefit = opt; size = 0; pool = 2; feasible = 3;
            optimizer_calls = 0; elapsed = 0.0;
            benefits = [| 0.0; opt; 73726.335 |] }
        in
        let ulps_below = Float.pred (Float.pred (Float.pred opt)) in
        Alcotest.(check int) "a few ulps below" 1 (Ex.rank r ulps_below);
        Alcotest.(check int) "a real gap" 2 (Ex.rank r (opt *. 0.999));
        Alcotest.(check int) "runner-up" 2 (Ex.rank r 73726.335));
    tc "pool-limit guard refuses large instances" (fun () ->
        let catalog = Lazy.force Helpers.shared_catalog in
        let wl = Xia_workload.Tpox.workload () in
        let set = En.candidates wl in
        let ev = B.create catalog wl in
        let budget = 1024 * 1024 in
        let fitting =
          List.length
            (List.filter
               (fun c -> B.candidate_size ev c <= budget)
               (C.to_list set))
        in
        Alcotest.(check bool)
          (Printf.sprintf "%d fitting candidates above the limit" fitting)
          true (fitting > Ex.default_limit);
        Alcotest.check_raises "default limit"
          (Invalid_argument
             (Printf.sprintf
                "Exhaustive.search: %d candidates exceed the small-instance \
                 limit %d"
                fitting Ex.default_limit))
          (fun () -> ignore (Ex.search ev set ~budget)));
  ]

(* One synthetic instance: tiny TPoX catalog, [n] random queries, a budget
   fraction of the All-Index size.  Returns everything the properties need. *)
let build_instance ~seed ~n ~frac =
  let catalog = Lazy.force Helpers.shared_catalog in
  let wl =
    Synthetic.workload ~seed catalog (Cat.table_names catalog) n
  in
  let set = En.candidates wl in
  let ev = B.create catalog wl in
  let all = B.config_size ev (C.basics set) in
  let budget = int_of_float (frac *. float_of_int all) in
  (catalog, wl, set, ev, budget)

(* Canonical order before scoring: [B.benefit] sums interaction-group
   deltas in first-member order, so comparing an algorithm's config against
   the oracle's enumeration of the same SET is only exact (bit-for-bit)
   when both are evaluated in one order. *)
let truth_of ev (o : S.outcome) = B.benefit ev (Ex.canonical o.S.config)

(* The five algorithms under their eval keys. *)
let algorithms =
  [
    ("greedy", fun ev set ~budget -> S.greedy ev set ~budget);
    ("heuristics", fun ev set ~budget -> S.greedy_heuristics ev set ~budget);
    ("tdlite", fun ev set ~budget -> S.top_down_lite ev set ~budget);
    ("tdfull", fun ev set ~budget -> S.top_down_full ev set ~budget);
    ("dp", fun ev set ~budget -> S.dynamic_programming ev set ~budget);
  ]

(* Exhaustive dominance is EXACT: every algorithm picks a budget-feasible
   subset of the same useful pool the oracle enumerates, and both score
   configurations on the same evaluator, so the oracle's optimum is an upper
   bound with no float slack.  When the useful pool is interaction-free
   (every sub-configuration a singleton, so benefit is additive), dynamic
   programming must also MATCH the optimum under its own rounded-unit
   feasibility, up to float-summation order. *)
let qcheck_oracle =
  QCheck.Test.make ~name:"exhaustive dominates; dp optimal sans interaction"
    ~count:12
    QCheck.(triple (int_range 0 1000) (int_range 3 8) (oneofl [ 0.3; 0.55; 0.9 ]))
    (fun (seed, n, frac) ->
      let _catalog, _wl, set, ev, budget = build_instance ~seed ~n ~frac in
      let exh =
        match Ex.search ev set ~budget with
        | exception Invalid_argument _ ->
            (* Pool above the small-instance limit: not this oracle's job. *)
            QCheck.assume_fail ()
        | exh -> exh
      in
      List.iter
        (fun (name, search) ->
          let o = search ev set ~budget in
          let b = truth_of ev o in
          if b > exh.Ex.benefit then
            QCheck.Test.fail_reportf
              "%s beats the exhaustive optimum: %.9f > %.9f (seed %d)" name b
              exh.Ex.benefit seed;
          if Float.equal b exh.Ex.benefit && Ex.rank exh b <> 1 then
            QCheck.Test.fail_reportf "%s optimal but rank %d (seed %d)" name
              (Ex.rank exh b) seed)
        algorithms;
      (* DP-vs-optimum under DP's own feasibility (sizes rounded UP to its
         knapsack granularity), when benefit is additive. *)
      let pool = Search_oracle.pool ev set in
      let interaction_free =
        List.for_all
          (fun g -> List.length g = 1)
          (B.groups (B.extend ev B.empty pool))
      in
      if interaction_free then begin
        let rounded = Search_oracle.knapsack_optimum ev set ~budget in
        let dp = S.dynamic_programming ev set ~budget in
        let dpb = truth_of ev dp in
        if dpb > rounded then
          QCheck.Test.fail_reportf
            "dp beats the rounded-feasibility optimum: %.9f > %.9f (seed %d)"
            dpb rounded seed;
        let eps = 1e-6 *. Float.max 1.0 rounded in
        if rounded -. dpb > eps then
          QCheck.Test.fail_reportf
            "dp suboptimal without interaction: %.9f vs optimum %.9f (seed %d)"
            dpb rounded seed
      end;
      true)

(* Deterministic companion to the qcheck property: scan a fixed seed range
   for interaction-free instances so the DP-equals-optimum branch is
   provably non-vacuous (qcheck alone could silently never hit it), and
   check the equality on every instance found. *)
let dp_matches_on_interaction_free =
  tc "dp = exhaustive on interaction-free instances (seed scan)" (fun () ->
      let hits = ref 0 in
      for seed = 0 to 39 do
        let _catalog, _wl, set, ev, budget =
          build_instance ~seed ~n:3 ~frac:0.9
        in
        let pool = Search_oracle.pool ev set in
        let interaction_free =
          pool <> []
          && List.for_all
               (fun g -> List.length g = 1)
               (B.groups (B.extend ev B.empty pool))
        in
        if interaction_free && List.length pool <= Ex.default_limit then begin
          incr hits;
          let rounded = Search_oracle.knapsack_optimum ev set ~budget in
          let dpb = truth_of ev (S.dynamic_programming ev set ~budget) in
          let eps = 1e-6 *. Float.max 1.0 rounded in
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: dp %.9f = optimum %.9f" seed dpb rounded)
            true
            (dpb <= rounded && rounded -. dpb <= eps)
        end
      done;
      Alcotest.(check bool)
        (Printf.sprintf "interaction-free instances found (%d)" !hits)
        true (!hits > 0))

(* ---------- committed eval cases ----------------------------------------- *)

(* One full harness run shared by the committed-case properties (the whole
   thing takes well under a second at the tiny scale). *)
let committed = lazy (Eval.run ~small:true Eval.default_specs)

let committed_case_tests =
  [
    tc "regret in (0,1] for every algorithm on every committed case" (fun () ->
        List.iter
          (fun (r : Eval.case_result) ->
            List.iter
              (fun (e : Eval.entry) ->
                let label =
                  Printf.sprintf "%s/%.2f/%s" e.Eval.e_case e.Eval.e_frac
                    e.Eval.e_algorithm
                in
                Alcotest.(check bool)
                  (label ^ " regret > 0") true (e.Eval.e_regret > 0.0);
                Alcotest.(check bool)
                  (label ^ " regret <= 1") true (e.Eval.e_regret <= 1.0);
                Alcotest.(check bool)
                  (label ^ " rank >= 1") true (e.Eval.e_rank >= 1))
              r.Eval.r_entries)
          (Lazy.force committed));
    tc "heuristics regret >= 0.9 on every committed case" (fun () ->
        List.iter
          (fun (r : Eval.case_result) ->
            List.iter
              (fun (e : Eval.entry) ->
                if e.Eval.e_algorithm = "heuristics" then
                  Alcotest.(check bool)
                    (Printf.sprintf "%s/%.2f heuristics regret %.6f"
                       e.Eval.e_case e.Eval.e_frac e.Eval.e_regret)
                    true (e.Eval.e_regret >= 0.9))
              r.Eval.r_entries)
          (Lazy.force committed));
    tc "oracle rows are exactly optimal" (fun () ->
        List.iter
          (fun (r : Eval.case_result) ->
            List.iter
              (fun (e : Eval.entry) ->
                if e.Eval.e_algorithm = "exhaustive" then begin
                  Alcotest.(check bool)
                    (e.Eval.e_case ^ " regret = 1") true
                    (Float.equal 1.0 e.Eval.e_regret);
                  Alcotest.(check int) (e.Eval.e_case ^ " rank") 1 e.Eval.e_rank
                end)
              r.Eval.r_entries)
          (Lazy.force committed));
    tc "spearman within [-1,1] and elapsed the only wobbly field" (fun () ->
        List.iter
          (fun (r : Eval.case_result) ->
            Alcotest.(check bool)
              (r.Eval.r_case ^ " spearman bounded") true
              (r.Eval.r_spearman >= -1.0 && r.Eval.r_spearman <= 1.0);
            Alcotest.(check bool)
              (r.Eval.r_case ^ " statements > 0") true (r.Eval.r_statements > 0))
          (Lazy.force committed));
    tc "run is deterministic across runs" (fun () ->
        let strip r = { r with Eval.r_elapsed = 0.0 } in
        let spec =
          List.filter
            (fun s -> s.Eval.s_name = "tpox-small")
            Eval.default_specs
        in
        let a = List.map strip (Eval.run ~small:true spec) in
        let b = List.map strip (Eval.run ~small:true spec) in
        Alcotest.(check bool) "identical modulo elapsed" true (a = b));
  ]

(* ---------- perturbation ------------------------------------------------- *)

let perturbation_tests =
  [
    tc "perturbed search collapses regret; ground truth stands" (fun () ->
        let spec =
          List.filter
            (fun s -> s.Eval.s_name = "tpox-small")
            Eval.default_specs
        in
        let broken = Eval.run ~perturb:1e6 ~small:true spec in
        List.iter
          (fun (r : Eval.case_result) ->
            List.iter
              (fun (e : Eval.entry) ->
                if e.Eval.e_algorithm <> "exhaustive" then begin
                  Alcotest.(check bool)
                    (Printf.sprintf "%s/%.2f/%s regret collapsed (%.6f)"
                       e.Eval.e_case e.Eval.e_frac e.Eval.e_algorithm
                       e.Eval.e_regret)
                    true
                    (e.Eval.e_regret < 0.5);
                  (* The yardstick is unperturbed: the optimum stays the
                     committed cases' optimum, strictly positive. *)
                  Alcotest.(check bool)
                    (e.Eval.e_case ^ " optimum positive") true
                    (e.Eval.e_optimal > 0.0)
                end)
              r.Eval.r_entries)
          broken);
    tc "a perturbed and a plain evaluator side by side stay independent" (fun () ->
        (* The eval builds its search evaluator at a factor and its truth
           evaluator without one.  Interleaved calls on configurations
           neither has cached must each equal the same call on an
           evaluator used alone. *)
        let catalog = Lazy.force Helpers.shared_catalog in
        let wl = Xia_workload.Tpox.workload () in
        let basics = C.basics (En.candidates wl) in
        let configs = basics :: List.map (fun c -> [ c ]) basics in
        let perturbed () = B.create ~index_cost_factor:1000.0 catalog wl in
        let plain () = B.create catalog wl in
        let alone make = let ev = make () in List.map (B.workload_cost ev) configs in
        let alone_perturbed = alone perturbed and alone_plain = alone plain in
        let ev_p = perturbed () and ev_1 = plain () in
        let side_by_side =
          List.map (fun c -> let p = B.workload_cost ev_p c in (p, B.workload_cost ev_1 c)) configs
        in
        let bits = List.map Int64.bits_of_float in
        Alcotest.(check (list int64)) "perturbed" (bits alone_perturbed)
          (bits (List.map fst side_by_side));
        Alcotest.(check (list int64)) "plain" (bits alone_plain)
          (bits (List.map snd side_by_side));
        (* The factor reaches the costs: all indexes help the plain model
           only. *)
        Alcotest.(check bool) "perturbed indexes help nothing" true
          (Float.equal (B.base_workload_cost ev_p) (List.hd alone_perturbed));
        Alcotest.(check bool) "plain indexes help" true
          (List.hd alone_plain < B.base_workload_cost ev_1));
  ]

let suites =
  [
    ("eval.spearman", spearman_tests);
    ("eval.exhaustive", exhaustive_unit_tests @ [ dp_matches_on_interaction_free ]);
    ("eval.cases", committed_case_tests);
    ("eval.perturbation", perturbation_tests);
    Helpers.qsuite "eval.qcheck" [ qcheck_oracle ];
  ]
