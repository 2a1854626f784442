(* Experiment harness: regenerates every table and figure of the paper's
   evaluation section, plus extension/ablation experiments, plus a bechamel
   micro-benchmark suite of the advisor's building blocks.

     dune exec bench/main.exe                 # everything (paper exhibits)
     dune exec bench/main.exe -- fig2 table3  # selected experiments
     dune exec bench/main.exe -- quick        # tiny data scale, all exhibits
     dune exec bench/main.exe -- micro        # bechamel micro-benchmarks

   Budgets: the paper reports disk budgets in MB against a 95 MB All-Index
   configuration; we sweep the same *ratios* against our measured All-Index
   size and print both the byte budget and the paper-equivalent MB. *)

module Advisor = Xia_advisor.Advisor
module Report = Xia_advisor.Report
module Search = Xia_advisor.Search
module Candidate = Xia_advisor.Candidate
module Benefit = Xia_advisor.Benefit
module Enumeration = Xia_advisor.Enumeration
module Catalog = Xia_index.Catalog
module Optimizer = Xia_optimizer.Optimizer
module W = Xia_workload.Workload
module Tpox = Xia_workload.Tpox
module Xmark = Xia_workload.Xmark
module Synthetic = Xia_workload.Synthetic
module Obs = Xia_obs.Obs
module Trace = Xia_obs.Trace

let paper_all_index_mb = 95.0

(* Set once, while parsing the arguments. *)
let quick = ref false [@@lint.allow "D001"]

let line = String.make 86 '-'

let header title =
  Format.printf "@.%s@.== %s@.%s@." line title line

(* Lazy, not a closure over a memo ref: forced only after the quick flag is
   parsed, and safe to share once forced. *)
let tpox_catalog =
  let memo =
    Lazy.from_fun (fun () ->
        let catalog = Catalog.create () in
        if !quick then Tpox.load ~scale:Tpox.tiny_scale catalog
        else Tpox.load catalog;
        catalog)
  in
  fun () -> Lazy.force memo

let paper_mb_of ~all_size bytes =
  paper_all_index_mb *. float_of_int bytes /. float_of_int all_size

let bytes_of_paper_mb ~all_size mb =
  int_of_float (mb /. paper_all_index_mb *. float_of_int all_size)

(* ---------- Table I / Algorithm 1: the running example ---------- *)

let table1 () =
  header
    "Table I / Section V: basic candidates of Q1,Q2 and their generalization";
  let q1 =
    {|for $sec in SECURITY('SDOC')/Security where $sec/Symbol = "BCIIPRC" return $sec|}
  in
  let q2 =
    {|for $sec in SECURITY('SDOC')/Security[Yield>4.5] where $sec/SecInfo/*/Sector = "Energy" return <Security>{$sec/Name}</Security>|}
  in
  let wl = W.of_strings [ q1; q2 ] in
  let set = Enumeration.candidates wl in
  Format.printf "Workload: the paper's Q1 and Q2.@.@.";
  List.iter
    (fun (c : Candidate.t) ->
      Format.printf "  C%d  %-35s %-8s %s@." (c.Candidate.id + 1)
        (Xia_xpath.Pattern.to_string c.Candidate.def.Xia_index.Index_def.pattern)
        (Xia_index.Index_def.data_type_to_string c.Candidate.def.Xia_index.Index_def.dtype)
        (match c.Candidate.origin with
        | Candidate.Basic -> "(basic)"
        | Candidate.General -> "(generalized)"))
    (Candidate.to_list set);
  Format.printf
    "@.Paper: C1=/Security/Symbol, C2=/Security/SecInfo/*/Sector, C3=/Security/Yield,@.\
     and generalization adds C4=/Security//* (string).@."

(* ---------- Figure 2: estimated speedup vs disk budget ---------- *)

let budget_fractions = [ 0.1; 0.2; 0.35; 0.5; 0.65; 0.8; 1.0; 1.25; 1.5; 2.0 ]

let fig2 () =
  header "Figure 2: estimated workload speedup vs disk space budget (TPoX, 11 queries)";
  let catalog = tpox_catalog () in
  let workload = Tpox.workload () in
  let session = Advisor.create_session catalog workload in
  let all = Advisor.session_advise session ~budget:max_int Advisor.All_index in
  let all_size = all.Advisor.outcome.Search.size in
  Format.printf "All-Index configuration: %d indexes, %d KB, speedup %.2fx@.@."
    (List.length all.Advisor.outcome.Search.config)
    (all_size / 1024) all.Advisor.est_speedup;
  Format.printf "%9s %9s | %8s %10s %9s %9s %8s | %9s@." "budget" "~paperMB"
    "greedy" "heuristic" "td-lite" "td-full" "dp" "all-index";
  Format.printf "%s@." line;
  List.iter
    (fun frac ->
      let budget = int_of_float (frac *. float_of_int all_size) in
      let sp alg = (Advisor.session_advise session ~budget alg).Advisor.est_speedup in
      Format.printf "%8dK %8.0fM | %7.2fx %9.2fx %8.2fx %8.2fx %7.2fx | %8.2fx@."
        (budget / 1024)
        (paper_mb_of ~all_size budget)
        (sp Advisor.Greedy) (sp Advisor.Greedy_heuristics) (sp Advisor.Top_down_lite)
        (sp Advisor.Top_down_full) (sp Advisor.Dynamic_programming)
        all.Advisor.est_speedup)
    budget_fractions;
  Format.printf
    "@.Expected shape (paper): speedup rises with budget toward All-Index; plain@.\
     greedy needs more space for the same speedup (it picks redundant indexes);@.\
     heuristics/td-lite track each other; td-full is best and can beat DP.@."

(* ---------- Figure 3: advisor run time vs disk budget ---------- *)

let fig3 () =
  header "Figure 3: advisor run time (fresh advisor per point) vs disk budget";
  let catalog = tpox_catalog () in
  (* A richer workload (11 TPoX + 29 synthetic queries) so the searches have
     enough candidates for their run times to diverge. *)
  let workload =
    Tpox.workload ()
    @ Synthetic.workload ~seed:5 catalog (Catalog.table_names catalog) 29
  in
  (* Measure the All-Index size once. *)
  let session = Advisor.create_session catalog workload in
  let all = Advisor.session_advise session ~budget:max_int Advisor.All_index in
  let all_size = all.Advisor.outcome.Search.size in
  Format.printf "%9s | %26s %26s %26s@." "~paperMB" "heuristic (s / calls)"
    "td-lite (s / calls)" "td-full (s / calls)";
  Format.printf "%s@." line;
  let algorithms =
    [ Advisor.Greedy_heuristics; Advisor.Top_down_lite; Advisor.Top_down_full ]
  in
  List.iter
    (fun frac ->
      let budget = int_of_float (frac *. float_of_int all_size) in
      let cells =
        List.map
          (fun alg ->
            let r, elapsed =
              Trace.timed "fig3.advise" (fun () ->
                  Advisor.advise catalog workload ~budget alg)
            in
            (elapsed, r.Advisor.outcome.Search.optimizer_calls))
          algorithms
      in
      Format.printf "%8.0fM |" (paper_mb_of ~all_size budget);
      List.iter (fun (s, c) -> Format.printf "    %10.3fs / %6d" s c) cells;
      Format.printf "@.")
    [ 0.25; 0.5; 1.0; 1.5; 2.0 ];
  Format.printf
    "@.Expected shape (paper): top-down full is the most expensive (up to ~7x the@.\
     heuristic search) and gets cheaper as the budget grows (fewer replacements).@."

(* ---------- Table III: number of candidate indexes ---------- *)

let table3 () =
  header "Table III: candidate counts for synthetic random-path workloads";
  let catalog = tpox_catalog () in
  let tables = Catalog.table_names catalog in
  Format.printf "%8s | %12s | %12s | %8s@." "queries" "basic cands" "total cands"
    "growth";
  Format.printf "%s@." line;
  List.iter
    (fun n ->
      let wl = Synthetic.workload ~seed:7 catalog tables n in
      let set = Enumeration.candidates wl in
      let basic = List.length (Candidate.basics set) in
      let total = Candidate.cardinality set in
      Format.printf "%8d | %12d | %12d | %7.0f%%@." n basic total
        (100.0 *. float_of_int (total - basic) /. float_of_int (max 1 basic)))
    [ 10; 20; 30; 40; 50 ];
  Format.printf
    "@.Paper: 12->16, 23->34, 33->49, 42->60, 52->81 (expansion up to ~50%%).@."

(* ---------- Table IV: general vs specific indexes recommended ---------- *)

let table4 () =
  header "Table IV: general (G) and specific (S) indexes recommended per budget";
  let catalog = tpox_catalog () in
  let workload = Tpox.workload () in
  let session = Advisor.create_session catalog workload in
  let all = Advisor.session_advise session ~budget:max_int Advisor.All_index in
  let all_size = all.Advisor.outcome.Search.size in
  Format.printf "%10s | %16s | %16s | %16s@." "budget" "top-down lite" "top-down full"
    "heuristics";
  Format.printf "%s@." line;
  List.iter
    (fun paper_mb ->
      let budget = bytes_of_paper_mb ~all_size paper_mb in
      let gs alg =
        let r = Advisor.session_advise session ~budget alg in
        (r.Advisor.general_count, r.Advisor.specific_count)
      in
      let gl, sl = gs Advisor.Top_down_lite in
      let gf, sf = gs Advisor.Top_down_full in
      let gh, sh = gs Advisor.Greedy_heuristics in
      Format.printf "%8.0fMB | %8s %7s | %8s %7s | %8s %7s@." paper_mb
        (Printf.sprintf "G: %d" gl) (Printf.sprintf "S: %d" sl)
        (Printf.sprintf "G: %d" gf) (Printf.sprintf "S: %d" sf)
        (Printf.sprintf "G: %d" gh) (Printf.sprintf "S: %d" sh))
    [ 100.0; 500.0; 1000.0; 2000.0 ];
  Format.printf
    "@.Paper: heuristics recommends (almost) no general indexes; top-down@.\
     recommends more general indexes the more disk space it has.@."

(* ---------- Figures 4 and 5: generalization to unseen queries ---------- *)

let train_test_workloads () =
  let catalog = tpox_catalog () in
  let test = Tpox.workload () @ Tpox.variation_queries () in
  (catalog, test)

let fig4 () =
  header "Figure 4: estimated speedup on a 20-query test workload vs training size";
  let catalog, test = train_test_workloads () in
  let session = Advisor.create_session catalog test in
  let all = Advisor.session_advise session ~budget:max_int Advisor.All_index in
  let budget = bytes_of_paper_mb ~all_size:all.Advisor.outcome.Search.size 2000.0 in
  Format.printf "(disk budget: paper-equivalent 2000 MB)@.@.";
  Format.printf "%6s | %10s | %10s | %10s@." "train" "all-index" "td-lite" "heuristic";
  Format.printf "%s@." line;
  let ns = if !quick then [ 1; 5; 10; 15; 20 ] else [ 1; 2; 4; 6; 8; 10; 12; 14; 16; 18; 20 ] in
  List.iter
    (fun n ->
      let train = W.prefix n test in
      let td = Advisor.advise catalog train ~budget Advisor.Top_down_lite in
      let h = Advisor.advise catalog train ~budget Advisor.Greedy_heuristics in
      let sp r =
        (Report.evaluate_configuration catalog test (Advisor.indexes r)).Report.est_speedup
      in
      Format.printf "%6d | %9.2fx | %9.2fx | %9.2fx@." n all.Advisor.est_speedup (sp td)
        (sp h))
    ns;
  Format.printf
    "@.Expected shape (paper): top-down above the heuristic while the training@.\
     workload is partial (generalization to unseen queries); both approach the@.\
     All-Index line as training grows; the specific configuration wins at n=20.@."

let fig5 () =
  header "Figure 5: ACTUAL (executed) speedup on the test workload vs training size";
  let catalog, test = train_test_workloads () in
  let session = Advisor.create_session catalog test in
  let all = Advisor.session_advise session ~budget:max_int Advisor.All_index in
  let budget = bytes_of_paper_mb ~all_size:all.Advisor.outcome.Search.size 2000.0 in
  let _, base_cost, _ = Advisor.execute_workload catalog test [] in
  let actual defs =
    let _, cost, _ = Advisor.execute_workload catalog test defs in
    base_cost /. cost
  in
  Format.printf "%6s | %10s | %10s | %10s@." "train" "all-index" "td-lite" "heuristic";
  Format.printf "%s@." line;
  let all_actual = actual (Advisor.indexes all) in
  let ns = if !quick then [ 1; 10; 20 ] else [ 1; 4; 8; 12; 16; 20 ] in
  List.iter
    (fun n ->
      let train = W.prefix n test in
      let td = Advisor.advise catalog train ~budget Advisor.Top_down_lite in
      let h = Advisor.advise catalog train ~budget Advisor.Greedy_heuristics in
      Format.printf "%6d | %9.2fx | %9.2fx | %9.2fx@." n all_actual
        (actual (Advisor.indexes td))
        (actual (Advisor.indexes h)))
    ns;
  Format.printf
    "@.Expected shape (paper): actual speedups corroborate the estimates, with@.\
     smaller magnitudes (paper: up to ~7x actual vs thousands estimated).@."

(* ---------- Extension: XMark ---------- *)

let xmark () =
  header "Extension (tech-report): XMark workload";
  let catalog = Catalog.create () in
  if !quick then Xmark.load ~scale:Xmark.tiny_scale catalog else Xmark.load catalog;
  let workload = Xmark.workload () in
  let session = Advisor.create_session catalog workload in
  let all = Advisor.session_advise session ~budget:max_int Advisor.All_index in
  let all_size = all.Advisor.outcome.Search.size in
  Format.printf "Candidates: %d basic, %d total.  All-Index: %d KB, %.2fx@.@."
    (List.length (Candidate.basics session.Advisor.candidates))
    (Candidate.cardinality session.Advisor.candidates)
    (all_size / 1024) all.Advisor.est_speedup;
  Format.printf "%9s | %8s %10s %9s %9s %8s@." "budget" "greedy" "heuristic" "td-lite"
    "td-full" "dp";
  Format.printf "%s@." line;
  List.iter
    (fun frac ->
      let budget = int_of_float (frac *. float_of_int all_size) in
      let sp alg = (Advisor.session_advise session ~budget alg).Advisor.est_speedup in
      Format.printf "%8dK | %7.2fx %9.2fx %8.2fx %8.2fx %7.2fx@." (budget / 1024)
        (sp Advisor.Greedy) (sp Advisor.Greedy_heuristics) (sp Advisor.Top_down_lite)
        (sp Advisor.Top_down_full) (sp Advisor.Dynamic_programming))
    [ 0.25; 0.5; 1.0; 2.0 ]

(* ---------- Extension: virtual-index cost accuracy ---------- *)

let accuracy () =
  header "Extension (tech-report): accuracy of virtual-index cost estimation";
  let catalog = tpox_catalog () in
  let workload = Tpox.workload () in
  let session = Advisor.create_session catalog workload in
  let all = Advisor.session_advise session ~budget:max_int Advisor.All_index in
  let defs = Advisor.indexes all in
  (* Virtual vs materialized size. *)
  Catalog.drop_all_indexes catalog;
  Format.printf "%-55s %12s %12s %7s@." "index pattern" "est size" "real size" "ratio";
  Format.printf "%s@." line;
  List.iter
    (fun (d : Xia_index.Index_def.t) ->
      let est =
        (Xia_index.Index_stats.derive_cached (Catalog.stats catalog d.table) d)
          .Xia_index.Index_stats.size_bytes
      in
      let pi = Catalog.create_index catalog d in
      let real = Xia_index.Physical_index.size_bytes pi in
      Format.printf "%-55s %11dB %11dB %6.2f@."
        (Printf.sprintf "%s %s" d.table (Xia_xpath.Pattern.to_string d.pattern))
        est real
        (float_of_int est /. float_of_int (max 1 real)))
    defs;
  (* Estimated vs executed cost per query, with all indexes in place. *)
  Format.printf "@.%-6s %14s %14s %8s@." "query" "est cost" "actual work" "ratio";
  Format.printf "%s@." line;
  List.iter
    (fun (item : W.item) ->
      let est =
        (Optimizer.optimize_costs ~virtual_config:defs
           [| Optimizer.prepare catalog item.W.statement |]).(0)
      in
      let actual =
        (Xia_optimizer.Executor.run_statement catalog item.W.statement)
          .Xia_optimizer.Executor.metrics
          .Xia_optimizer.Executor.simulated_cost
      in
      Format.printf "%-6s %14.0f %14.0f %8.2f@." item.W.label est actual (est /. actual))
    workload;
  Catalog.drop_all_indexes catalog

(* ---------- Extension: maintenance-cost sensitivity ---------- *)

let maint () =
  header "Extension (tech-report): maintenance cost vs update frequency";
  let catalog = tpox_catalog () in
  let budget = 64 * 1024 * 1024 in
  Format.printf "%10s | %7s | %16s | %12s@." "DML freq" "indexes" "XORDER indexes"
    "est speedup";
  Format.printf "%s@." line;
  List.iter
    (fun update_freq ->
      let wl = Tpox.workload_with_updates ~update_freq () in
      let r = Advisor.advise catalog wl ~budget Advisor.Greedy_heuristics in
      let on_orders =
        List.length
          (List.filter
             (fun (d : Xia_index.Index_def.t) -> String.equal d.table Tpox.order_table)
             (Advisor.indexes r))
      in
      Format.printf "%10.0f | %7d | %16d | %11.2fx@." update_freq
        (List.length (Advisor.indexes r))
        on_orders r.Advisor.est_speedup)
    [ 0.0; 10.0; 1_000.0; 10_000.0; 100_000.0 ];
  Format.printf "@.Indexes on the update-heavy table drop out as DML frequency rises.@."

(* ---------- Ablation: the beta threshold of the heuristic search ---------- *)

let beta () =
  header "Ablation: beta size-expansion threshold (greedy with heuristics)";
  let catalog = tpox_catalog () in
  (* Synthetic queries produce overlapping patterns whose specific indexes
     double-store entries, so a general index can undercut (1+beta) of their
     total size. *)
  let workload =
    Tpox.workload ()
    @ Synthetic.workload ~seed:5 catalog (Catalog.table_names catalog) 29
  in
  let session = Advisor.create_session catalog workload in
  let all = Advisor.session_advise session ~budget:max_int Advisor.All_index in
  let budget = 2 * all.Advisor.outcome.Search.size in
  Format.printf "%8s | %8s %8s | %12s@." "beta" "G" "S" "est speedup";
  Format.printf "%s@." line;
  List.iter
    (fun b ->
      let r = Advisor.session_advise ~beta:b session ~budget Advisor.Greedy_heuristics in
      Format.printf "%8.2f | %8d %8d | %11.2fx@." b r.Advisor.general_count
        r.Advisor.specific_count r.Advisor.est_speedup)
    [ 0.0; 0.1; 0.5; 1.0; 4.0 ];
  Format.printf
    "@.Paper uses beta = 0.10.  A general index is admitted only when it also@.beats its children on benefit, so beta binds rarely on index-friendly@.workloads.@."

(* ---------- Ablation: histograms vs uniform range estimation ---------- *)

let hist () =
  header "Ablation: per-path histograms vs uniform-range selectivity";
  (* A skewed table: 90% of values uniform in [0,100), tail to 1000. *)
  let catalog = Catalog.create () in
  let store = Xia_storage.Doc_store.create "SKEW" in
  for i = 0 to 4999 do
    let v =
      if i mod 10 < 9 then float_of_int (i mod 100)
      else float_of_int (100 + (i mod 900))
    in
    ignore
      (Xia_storage.Doc_store.insert store
         (Xia_xml.Parser.parse_exn (Printf.sprintf "<a><v>%.1f</v></a>" v)))
  done;
  Catalog.add_table catalog store;
  ignore (Catalog.runstats catalog "SKEW");
  (* The uniform-range estimate, straight from the path's bounds: the
     share of [min_num, max_num] on the predicate's side of [x]. *)
  let stats = Catalog.stats catalog "SKEW" in
  let v =
    Xia_storage.Path_stats.fold
      (fun acc info -> if Xia_storage.Path_stats.key info = "a/v" then Some info else acc)
      stats None
    |> Option.get
  in
  let uniform below x =
    let f =
      Float.max 0.0
        (Float.min 1.0
           ((x -. v.Xia_storage.Path_stats.min_num)
           /. (v.Xia_storage.Path_stats.max_num -. v.Xia_storage.Path_stats.min_num)))
    in
    float_of_int stats.Xia_storage.Path_stats.doc_count *. if below then f else 1.0 -. f
  in
  Format.printf "%14s | %10s | %12s | %12s@." "predicate" "true docs" "est (hist)"
    "est (uniform)";
  Format.printf "%s@." line;
  List.iter
    (fun (label, below, x, truth) ->
      let stmt =
        Xia_query.Parser.parse_statement_exn
          (Printf.sprintf "for $x in SKEW/a where $x/%s return $x" label)
      in
      let est =
        match
          (Optimizer.optimize_prepared ~virtual_config:[] [| Optimizer.prepare catalog stmt |]).(0)
            .Xia_optimizer.Plan.bindings
        with
        | [ b ] -> b.Xia_optimizer.Plan.est_docs
        | _ -> 0.0
      in
      Format.printf "%14s | %10d | %12.0f | %12.0f@." label truth est (uniform below x))
    [
      ("v < 100", true, 100.0, 4500);
      ("v < 50", true, 50.0, 2250);
      ("v > 500", false, 500.0, 250);
      ("v > 900", false, 900.0, 50);
    ];
  Format.printf
    "@.Histograms track the skewed distribution; the uniform assumption misprices@.\
     both ends, which misleads the doc-scan-vs-index-scan decision.@."

(* ---------- Section VI-C: optimizer-call reduction ---------- *)

let calls () =
  header "Section VI-C: optimizer calls saved by affected sets + sub-config cache";
  let catalog = tpox_catalog () in
  let workload = Tpox.workload () in
  Format.printf "%-20s | %10s | %12s | %10s@." "algorithm" "calls" "naive calls"
    "cache hits";
  Format.printf "%s@." line;
  List.iter
    (fun alg ->
      let set = Enumeration.candidates workload in
      let ev = Benefit.create catalog workload in
      let session = { Advisor.candidates = set; evaluator = ev } in
      let all = Advisor.session_advise session ~budget:max_int Advisor.All_index in
      let budget = all.Advisor.outcome.Search.size in
      (* Fresh evaluator so counters reflect only this search. *)
      let ev = Benefit.create catalog workload in
      let session = { Advisor.candidates = set; evaluator = ev } in
      let _ = Advisor.session_advise session ~budget alg in
      let naive = (Benefit.cache_hits ev + Benefit.cached_sub_configs ev) * W.size workload in
      Format.printf "%-20s | %10d | %12d | %10d@." (Advisor.algorithm_name alg)
        (Benefit.evaluations ev) naive (Benefit.cache_hits ev))
    Advisor.all_algorithms;
  Format.printf
    "@.'naive calls' = what evaluating every requested (sub-)configuration against@.\
     the whole workload would cost without affected sets and caching.@."

(* ---------- Ablation: index ORing for disjunctive predicates ---------- *)

let ixor () =
  header "Ablation: index ORing (disjunctive predicates need an index per branch)";
  let catalog = tpox_catalog () in
  let q =
    Xia_query.Parser.parse_statement_exn
      {|for $c in CUSTACC('CADOC')/Customer where $c/Nationality = "Norway" or $c/CountryOfResidence = "Norway" return $c|}
  in
  let nat =
    Xia_index.Index_def.make ~table:Tpox.custacc_table
      ~pattern:(Xia_xpath.Pattern.of_string "/Customer/Nationality")
      ~dtype:Xia_index.Index_def.Dstring ()
  in
  let residence =
    Xia_index.Index_def.make ~table:Tpox.custacc_table
      ~pattern:(Xia_xpath.Pattern.of_string "/Customer/CountryOfResidence")
      ~dtype:Xia_index.Index_def.Dstring ()
  in
  Format.printf
    "query: Nationality = \"Norway\" OR CountryOfResidence = \"Norway\"@.@.";
  Format.printf "%-28s | %12s | %s@." "configuration" "est cost" "plan";
  Format.printf "%s@." line;
  let prepared = [| Optimizer.prepare catalog q |] in
  List.iter
    (fun (label, defs) ->
      let plan = (Optimizer.optimize_prepared ~virtual_config:defs prepared).(0) in
      let shape =
        match plan.Xia_optimizer.Plan.bindings with
        | [ b ] -> Fmt.str "%a" Xia_optimizer.Plan.pp_binding_plan b.Xia_optimizer.Plan.plan
        | _ -> "?"
      in
      Format.printf "%-28s | %12.0f | %s@." label plan.Xia_optimizer.Plan.total_cost shape)
    [
      ("no indexes", []);
      ("Nationality only", [ nat ]);
      ("CountryOfResidence only", [ residence ]);
      ("both (index ORing)", [ nat; residence ]);
    ];
  Format.printf
    "@.A disjunction is index-eligible only when every branch has an index; the@.\
     advisor therefore recommends the pair together or not at all.@."

(* ---------- Scalability: advisor cost vs workload size ---------- *)

let scale () =
  header "Scalability: advisor run time and optimizer calls vs workload size";
  let catalog = tpox_catalog () in
  let tables = Catalog.table_names catalog in
  Format.printf "%8s | %8s | %8s | %10s | %10s | %9s@." "queries" "basic" "total"
    "advise (s)" "calls" "speedup";
  Format.printf "%s@." line;
  List.iter
    (fun n ->
      let wl =
        Tpox.workload () @ Synthetic.workload ~seed:13 catalog tables (n - 11)
      in
      let (set, ev, r), elapsed =
        Trace.timed "scale.advise" (fun () ->
            let set = Enumeration.candidates wl in
            let ev = Benefit.create catalog wl in
            let session = { Advisor.candidates = set; evaluator = ev } in
            let all = Advisor.session_advise session ~budget:max_int Advisor.All_index in
            let r =
              Advisor.session_advise session ~budget:all.Advisor.outcome.Search.size
                Advisor.Greedy_heuristics
            in
            (set, ev, r))
      in
      Format.printf "%8d | %8d | %8d | %10.3f | %10d | %8.2fx@." n
        (List.length (Candidate.basics set))
        (Candidate.cardinality set) elapsed (Benefit.evaluations ev)
        r.Advisor.est_speedup)
    [ 11; 20; 40; 60; 80; 100 ];
  Format.printf
    "@.End-to-end advisor cost grows roughly linearly in workload size thanks to@.\
     affected sets and the sub-configuration cache.@."

(* ---------- Workload compression at scale ---------- *)

(* A 10k-statement (100k at full scale) Zipf-skewed synthetic workload,
   advised with and without workload compression.  Both paths run as
   SEPARATE exhibits so BENCH_advisor.json carries one record each — the
   compressed record's raw-equivalent optimizer calls must sit >= 10x below
   the raw record's (the acceptance criterion of the compression work), and
   the ratchet guards each independently. *)
let scale10k_params () =
  if !quick then (10_000, 64) else (100_000, 256)

let scale10k_workload () =
  let catalog = tpox_catalog () in
  let n, distinct = scale10k_params () in
  let workload =
    Synthetic.skewed_workload ~seed:31 ~alpha:1.1 ~distinct catalog
      (Catalog.table_names catalog) n
  in
  (catalog, workload, distinct)

(* Disk budget without touching the optimizer: the skewed workload's basic
   candidates are exactly those of its distinct template pool
   ([skewed_workload ~seed] draws templates from [workload ~seed:(seed+1)]),
   so half the pool's All-Index size is computable from [Candidate.size]
   alone — enumeration and size derivation are pure statement/statistics
   analysis. *)
let scale10k_budget catalog distinct =
  let pool =
    Synthetic.workload ~seed:32 ~label_prefix:"T" catalog
      (Catalog.table_names catalog) distinct
  in
  let pool_set = Enumeration.candidates pool in
  List.fold_left
    (fun acc c -> acc + Candidate.size catalog c)
    0 (Candidate.basics pool_set)
  / 2

let scale10k_impl ~compress =
  let catalog, workload, distinct = scale10k_workload () in
  let budget = scale10k_budget catalog distinct in
  let calls0 = Atomic.get Optimizer.counters.Optimizer.optimize_calls in
  let saved0 = Atomic.get Optimizer.counters.Optimizer.batch_setup_saved in
  let r, elapsed =
    Trace.timed "scale10k.advise" (fun () ->
        Advisor.advise ~compress catalog workload ~budget Advisor.Greedy)
  in
  let calls = Atomic.get Optimizer.counters.Optimizer.optimize_calls - calls0 in
  let raw =
    calls + Atomic.get Optimizer.counters.Optimizer.batch_setup_saved - saved0
  in
  Format.printf "workload: %d statements (%d distinct templates), budget %d bytes@."
    (W.size workload) distinct budget;
  Format.printf "summary: %a@." Xia_advisor.Workload_summary.pp_info
    r.Advisor.summary;
  Format.printf
    "greedy advise: %.3fs, %d batched optimizer calls (raw-equivalent %d), %d pruned@."
    elapsed calls raw r.Advisor.outcome.Search.pruned;
  Format.printf "%a@." Advisor.pp_recommendation r;
  (r, raw)

let scale10k () =
  header "Workload compression: advise 10k+ statements on representatives";
  ignore (scale10k_impl ~compress:true)

let scale10k_raw () =
  header "Workload compression baseline: the same workload, uncompressed";
  ignore (scale10k_impl ~compress:false)

(* ---------- RUNSTATS and index builds ---------- *)

(* Words allocated so far: the minor heap's, plus the blocks of over 256
   words that go straight to the major heap.  Promoted words are counted
   once, when allocated in the minor heap, so the count does not depend on
   when minor collections happen.  The minor part is [Gc.minor_words]:
   [Gc.counters]' own minor count misses part of the current minor heap
   (OCaml 5.1). *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* Words the running exhibit measured itself, for its record; an exhibit
   that sets it must allocate the same on every run. *)
let exhibit_alloc_words : float option ref = ref None [@@lint.allow "D001"]

let take_alloc_words () =
  let words = !exhibit_alloc_words in
  exhibit_alloc_words := None;
  words

(* Runs [pass] twice with observability off and records the words the
   second run allocates: the first fills the process-wide label, pattern,
   coverage and statistics tables, so the count depends on neither the
   exhibits run before nor the clock, and the bench ratchet holds it.  That
   also needs the pass's allocation not to depend on the values of interned
   ids, which depend on what earlier exhibits interned first
   ([Benefit.fingerprint]).  Returns both results. *)
let second_pass name pass =
  let span = name ^ ".pass" in
  Obs.with_enabled false (fun () ->
      let first = pass () in
      let w0 = allocated_words () in
      let second, elapsed = Trace.timed span pass in
      let words = allocated_words () -. w0 in
      exhibit_alloc_words := Some words;
      Format.printf "second pass: %.4fs, %.0f allocated words@." elapsed words;
      (first, second))

(* RUNSTATS over every TPoX table, then a build of every basic candidate
   index of the TPoX workload, on a fresh catalog at one domain; the
   record's allocated words are those of the [second_pass]. *)
let walk () =
  header "RUNSTATS and index builds: the guided document walk";
  let catalog = Catalog.create () in
  if !quick then Tpox.load ~scale:Tpox.tiny_scale catalog else Tpox.load catalog;
  let tables = Catalog.table_names catalog in
  let defs =
    List.map
      (fun (c : Candidate.t) -> c.Candidate.def)
      (Candidate.basics (Enumeration.basic_candidates catalog (Tpox.workload ())))
  in
  let pass () =
    let paths =
      List.fold_left
        (fun n t -> n + Xia_storage.Path_stats.path_count (Catalog.runstats catalog t))
        0 tables
    in
    let entries =
      List.fold_left
        (fun n d -> n + Xia_index.Physical_index.entry_count (Catalog.create_index catalog d))
        0 defs
    in
    Catalog.drop_all_indexes catalog;
    (paths, entries)
  in
  let _, (paths, entries) = second_pass "walk" pass in
  Format.printf "%d tables, %d documents, %d paths; %d indexes, %d entries@."
    (List.length tables)
    (List.fold_left
       (fun n t -> n + Xia_storage.Doc_store.doc_count (Catalog.store catalog t))
       0 tables)
    paths (List.length defs) entries

(* ---------- RUNSTATS over deep and wide documents ---------- *)

(* RUNSTATS over one 4,000-deep chain and one document with 4,000
   distinct children, at every data scale.  One dataguide entry per path
   keeps both linear in the path count, so the [second_pass]'s allocated
   words are held by the bench ratchet: a per-path copy of the path's labels
   would make the chain's share grow with the square of its depth. *)
let shapes () =
  header "RUNSTATS over a 4,000-deep chain and a 4,000-wide document";
  let store name doc =
    let s = Xia_storage.Doc_store.create name in
    ignore (Xia_storage.Doc_store.insert s doc);
    s
  in
  let open Xia_xml.Types in
  let rec chain k = if k = 0 then leaf "a" "x" else element "a" [ chain (k - 1) ] in
  let deep = store "DEEP" (chain 3_999) in
  let wide = store "WIDE" (element "r" (List.init 4_000 (fun i -> leaf (Printf.sprintf "c%d" i) "x"))) in
  let paths s = Xia_storage.Path_stats.path_count (Xia_storage.Path_stats.collect s) in
  let _, (deep_paths, wide_paths) = second_pass "shapes" (fun () -> (paths deep, paths wide)) in
  Format.printf "deep chain: %d paths; wide document: %d paths@." deep_paths wide_paths

(* ---------- Validation: the executor's document scans ---------- *)

(* The read statements of the TPoX workload, executed on a catalog without
   indexes and on one with every basic candidate index built: mostly
   table scans, and some index probes with fetches.  Index builds happen
   before [second_pass] runs either pass, so its allocated words are the
   executor's own (planning included). *)
let executor () =
  header "Validation: the TPoX reads executed with and without indexes";
  let load () =
    let catalog = Catalog.create () in
    if !quick then Tpox.load ~scale:Tpox.tiny_scale catalog else Tpox.load catalog;
    catalog
  in
  let plain = load () and indexed = load () in
  let reads =
    List.filter
      (fun (i : W.item) -> not (Xia_query.Ast.is_dml i.statement))
      (Tpox.workload ())
  in
  List.iter
    (fun (c : Candidate.t) -> ignore (Catalog.create_index indexed c.Candidate.def))
    (Candidate.basics (Enumeration.basic_candidates indexed (Tpox.workload ())));
  let run catalog =
    List.fold_left
      (fun (rows, scanned) (i : W.item) ->
        let r = Xia_optimizer.Executor.run_statement catalog i.statement in
        (rows + r.rows, scanned + r.metrics.docs_scanned))
      (0, 0) reads
  in
  let _, ((rows, scanned), (rows', scanned')) =
    second_pass "executor" (fun () -> (run plain, run indexed))
  in
  Format.printf "%d reads: %d rows, %d documents scanned without indexes; %d rows, %d scanned with %d indexes@."
    (List.length reads) rows scanned rows' scanned'
    (List.length (Catalog.real_indexes indexed Tpox.security_table)
    + List.length (Catalog.real_indexes indexed Tpox.custacc_table)
    + List.length (Catalog.real_indexes indexed Tpox.order_table))

(* ---------- Document scans ---------- *)

(* The read statements of the TPoX workload, planned once on the tiny TPoX
   store without indexes, so that every binding is a document scan, and
   executed [rounds] times in a [second_pass], at every data scale.  A scan
   allocates nothing per document, so the pass's allocated words are the
   executor's per statement. *)
let scan () =
  header "Document scans: the TPoX reads over the tiny TPoX store";
  let catalog = Catalog.create () in
  Tpox.load ~scale:Tpox.tiny_scale catalog;
  let plans =
    List.filter_map
      (fun (i : W.item) ->
        if Xia_query.Ast.is_dml i.statement then None
        else Some (Optimizer.optimize catalog i.statement))
      (Tpox.workload ())
  in
  let rounds = 20 in
  let pass () =
    let scanned = ref 0 in
    for _ = 1 to rounds do
      List.iter
        (fun plan ->
          let r = Xia_optimizer.Executor.run_plan catalog plan in
          scanned := !scanned + r.metrics.docs_scanned)
        plans
    done;
    !scanned
  in
  let _, scanned = second_pass "scan" pass in
  Format.printf "%d reads, %d rounds: %d documents scanned@." (List.length plans) rounds scanned

(* ---------- Index upkeep: refreshes after DML ---------- *)

(* One string index of 8,000 entries (2,000 documents of four keyed
   elements) is refreshed after one document changes and again after two
   more do, in a [second_pass]: its allocated words are the writes' and
   the refreshes'.  Then, outside the pass, a refresh after every document
   changed is set against a build of the same index, in allocated words
   and min-of-5 wall time. *)
let upkeep () =
  header "Index upkeep: refreshes after one- and two-document changes";
  let module DS = Xia_storage.Doc_store in
  let module PI = Xia_index.Physical_index in
  let docs = 2_000 in
  let doc i v =
    Xia_xml.Types.element "a"
      (List.init 4 (fun j ->
           Xia_xml.Types.leaf "b" (Printf.sprintf "k%05d" (((((4 * i) + j) * 7_919) + v) mod 100_000))))
  in
  let store = DS.create "UPKEEP" in
  for i = 0 to docs - 1 do
    ignore (DS.insert store (doc i 0))
  done;
  let catalog = Catalog.create () in
  Catalog.add_table catalog store;
  let def =
    Xia_index.Index_def.make ~table:"UPKEEP" ~pattern:(Xia_xpath.Pattern.of_string "/a/b")
      ~dtype:Xia_index.Index_def.Dstring ()
  in
  ignore (Catalog.create_index catalog def);
  let changed = Array.init docs (fun i -> Xia_xml.Packed.pack (DS.labels store) (doc i 1)) in
  let write ids = List.iter (fun id -> ignore (DS.update store id changed.(id))) ids in
  let pass () =
    write [ 17 ];
    Catalog.refresh_indexes catalog;
    write [ 942; 1_733 ];
    Catalog.refresh_indexes catalog;
    List.fold_left (fun n pi -> n + PI.entry_count pi) 0 (Catalog.real_indexes catalog "UPKEEP")
  in
  let _, n = second_pass "upkeep" pass in
  Format.printf "%d documents, %d entries: refreshed after one, then two changed documents@." docs n;
  let stale = List.hd (Catalog.real_indexes catalog "UPKEEP") in
  write (List.init docs Fun.id);
  let measure f =
    Obs.with_enabled false (fun () ->
        ignore (f ());
        let w0 = allocated_words () in
        ignore (f ());
        let words = allocated_words () -. w0 in
        let best = ref infinity in
        for _ = 1 to 5 do
          best := Float.min !best (snd (Trace.timed "upkeep.measure" f))
        done;
        (words, !best))
  in
  let rw, rs = measure (fun () -> PI.entry_count (PI.refresh store stale)) in
  let bw, bs = measure (fun () -> PI.entry_count (PI.build store def)) in
  Format.printf
    "every document changed: refresh %.0f words, %.4fs; build %.0f words, %.4fs (min of 5); refresh/build words %.3f@."
    rw rs bw bs (rw /. bw)

(* ---------- What-if evaluation: the batched Evaluate pass ---------- *)

(* The workload and candidates of the advisor phase: TPoX plus synthetic
   statements. *)
let advisor_phase_setup () =
  let catalog = tpox_catalog () in
  let workload =
    Tpox.workload ()
    @ Synthetic.workload ~seed:21 catalog (Catalog.table_names catalog)
        (if !quick then 29 else 69)
  in
  (catalog, workload, Enumeration.candidates workload)

let config_ids (r : Advisor.recommendation) =
  List.map (fun (c : Candidate.t) -> c.Candidate.id) r.Advisor.outcome.Search.config

(* The advisor phase at one domain: a fresh evaluator, then All-Index and
   four searches at half of All-Index's size. *)
let advisor_phase (catalog, workload, set) =
  let ev = Benefit.create catalog workload in
  let session = { Advisor.candidates = set; evaluator = ev } in
  let all = Advisor.session_advise session ~budget:max_int Advisor.All_index in
  let budget = all.Advisor.outcome.Search.size / 2 in
  ( List.map
      (Advisor.session_advise session ~budget)
      [ Advisor.Greedy; Advisor.Greedy_heuristics; Advisor.Top_down_full;
        Advisor.Dynamic_programming ],
    ev )

(* Every configuration the advisor phase's searches cost goes through
   batched Evaluate-mode optimizer calls, so the [second_pass] is dominated
   by index matching, planning and the searches' own work. *)
let whatif () =
  header "What-if evaluation: the advisor phase's batched Evaluate pass";
  let ((_, workload, set) as setup) = advisor_phase_setup () in
  let (outs0, _), (outs, ev) = second_pass "whatif" (fun () -> advisor_phase setup) in
  Format.printf "workload: %d statements, %d candidates@." (W.size workload)
    (Candidate.cardinality set);
  Format.printf "%d batched optimizer calls; identical recommendations: %b@."
    (Benefit.evaluations ev)
    (List.map config_ids outs = List.map config_ids outs0)

(* ---------- What-if pre-passes: plan usage, the search pool, the floors ---------- *)

(* Distinct random queries over the TPoX tables, the shape of advbench's
   whatif-2k workload: [n] of them at full scale, fewer at quick scale. *)
let distinct_workload catalog n =
  let seen = Hashtbl.create n in
  Synthetic.workload ~seed:31 catalog (Catalog.table_names catalog) (2 * n)
  |> List.filter (fun (it : W.item) ->
         let text = Xia_query.Printer.statement_to_string it.W.statement in
         (not (Hashtbl.mem seen text)) && (Hashtbl.add seen text (); true))
  |> List.filteri (fun i _ -> i < n)

(* [Benefit.used_in_plans], [useful_ids] and [floors] on a fresh evaluator,
   in a [second_pass].  The pre-passes match each distinct access key once
   against the candidates, where each used to test every (statement,
   candidate) pair; the exhibit prints both counts. *)
let pool () =
  header "What-if pre-passes: plan usage, the search pool and the floors";
  let catalog = tpox_catalog () in
  let workload = distinct_workload catalog (if !quick then 300 else 2000) in
  let set = Enumeration.candidates workload in
  let pass () =
    let ev = Benefit.create catalog workload in
    let used = Benefit.used_in_plans ev set in
    let useful = Benefit.useful_ids ev set in
    ignore (Benefit.floors ev set);
    (ev, Hashtbl.length used, Hashtbl.length useful)
  in
  let _, (ev, used, useful) = second_pass "pool" pass in
  let keys =
    List.concat_map
      (fun (it : W.item) ->
        Array.to_list (Optimizer.access_keys (Optimizer.prepare catalog it.W.statement)))
      workload
    |> List.sort_uniq compare |> List.length
  in
  let n = W.size workload
  and basics = List.length (Candidate.basics set)
  and cands = Candidate.cardinality set in
  Format.printf "%d statements, %d distinct access keys, %d basic of %d candidates@." n keys
    basics cands;
  Format.printf "%d used in plans, %d in the search pool@." used useful;
  Format.printf "index-access match tests: %d (keys x basics %d + keys x generals %d)@."
    (Benefit.match_tests ev) (keys * basics)
    (keys * (cands - basics));
  Format.printf
    "(statement, candidate) pairs the statement scans tested: %d (statements x basics %d + \
     statements x candidates %d)@."
    ((n * basics) + (n * cands))
    (n * basics) (n * cands)

(* ---------- Candidate generation: enumeration and generalization ---------- *)

(* [Enumeration.candidates] over the representatives of [scale10k]'s
   compressed workload, in a [second_pass]: Enumerate-mode optimizer calls,
   then the generalization fixpoint. *)
let candidates () =
  header "Candidate generation: the scale10k representatives enumerated and generalized";
  let catalog, workload, _ = scale10k_workload () in
  let reps =
    Xia_advisor.Workload_summary.workload
      (Xia_advisor.Workload_summary.compress catalog workload)
  in
  let _, set = second_pass "candidates" (fun () -> Enumeration.candidates reps) in
  Format.printf "%d statements, %d representatives: %d basic, %d candidates@."
    (W.size workload) (W.size reps)
    (List.length (Candidate.basics set))
    (Candidate.cardinality set)

(* ---------- Load: XML text to a catalog with statistics ---------- *)

(* The TPoX documents (drawn as [Tpox.load] draws them) as
   [Xia_xml.Printer] text, then parsed, inserted into fresh tables and
   summarized by RUNSTATS in a [second_pass]: the path from data text to
   a catalog that advbench's setup phase times.  Parsing allocates little
   beyond the trees it returns, so the words track the documents' size. *)
let load () =
  header "Load: parse, insert and RUNSTATS over TPoX document text";
  let scale = if !quick then Tpox.tiny_scale else Tpox.default_scale in
  let rng = Random.State.make [| 42 |] in
  let text = Xia_xml.Printer.to_string in
  let securities = Array.init scale.securities (fun i -> text (Tpox.security rng i)) in
  let customers = Array.init scale.customers (fun i -> text (Tpox.customer rng i)) in
  let orders =
    Array.init scale.orders (fun i ->
        text (Tpox.order rng i ~n_securities:scale.securities ~n_customers:scale.customers))
  in
  let tables =
    [ (Tpox.security_table, securities); (Tpox.custacc_table, customers); (Tpox.order_table, orders) ]
  in
  let pass () =
    let catalog = Catalog.create () in
    List.iter
      (fun (name, docs) ->
        let store = Xia_storage.Doc_store.create name in
        Array.iter
          (fun doc -> ignore (Xia_storage.Doc_store.insert store (Xia_xml.Parser.parse_exn doc)))
          docs;
        Catalog.add_table catalog store)
      tables;
    Catalog.runstats_all catalog;
    catalog
  in
  let _, catalog = second_pass "load" pass in
  let sum f = List.fold_left (fun n (name, docs) -> n + f name docs) 0 tables in
  Format.printf "%d documents, %d bytes of text, %d paths@."
    (sum (fun _ docs -> Array.length docs))
    (sum (fun _ docs -> Array.fold_left (fun n doc -> n + String.length doc) 0 docs))
    (sum (fun name _ -> Xia_storage.Path_stats.path_count (Catalog.stats catalog name)))

(* ---------- Workload reading: a Zipf-repeated query log ---------- *)

(* [scale10k]'s workload (10k statements over 64 templates at quick scale)
   written as a "freq|statement" query log, then read back with
   [Workload.read] in a [second_pass]: nearly every line repeats an earlier
   one, the case the reader's raw-line memo serves. *)
let read () =
  header "Workload reading: a Zipf-repeated query log read back";
  let _, workload, distinct = scale10k_workload () in
  let path = Filename.temp_file "xia_read" ".workload" in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun (it : W.item) ->
          Printf.fprintf oc "%.17g|%s\n" it.W.freq
            (Xia_query.Printer.statement_to_string it.W.statement))
        workload);
  let _, read =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () -> second_pass "read" (fun () -> W.of_file path))
  in
  Format.printf "%d lines over %d templates, %d read back@." (W.size workload) distinct
    (W.size read)

(* ---------- Lint: every check over lib/ ---------- *)

(* The lint of the lib/ sources next to the executable's directory (the
   build tree's copy, which rules that depend on (source_tree lib) put
   there, and where the lint.self_check tests find them) in a
   [second_pass]: parsing, the site walk and every check.  It lints the
   relative path "lib" from that directory, so the allocated words depend
   on the sources alone, not on where the checkout is; they move with
   every edit to lib/, so the bench ratchet holds them within a factor,
   not with a [max] line.  A read or parse error fails the exhibit. *)
let lint () =
  header "Lint: every check over lib/";
  let cwd = Sys.getcwd () in
  Sys.chdir (Filename.dirname (Filename.dirname Sys.executable_name));
  let errors =
    Fun.protect
      ~finally:(fun () -> Sys.chdir cwd)
      (fun () ->
        let _, (report : Xia_analysis.Lint.report) =
          second_pass "lint" (fun () -> Xia_analysis.Lint.lint_paths [ "lib" ])
        in
        Format.printf "%d findings@." (List.length report.findings);
        List.map
          (fun (e : Xia_analysis.Lint.error) -> e.path ^ ": " ^ e.message)
          report.errors)
  in
  if errors <> [] then begin
    List.iter prerr_endline errors;
    exit 1
  end

(* ---------- Recommendation quality vs the exhaustive optimum ---------- *)

(* The committed eval cases (lib/eval): regret against the true optimum and
   executor-validated benefit, the same numbers `xia_advise eval --small`
   reports and the eval ratchet (tools/ratchet.ml) holds.  Always at the
   tiny scale — the exhaustive oracle is exponential in the candidate pool,
   so the full benchmark scale is out of reach by design. *)
let eval_quality () =
  header "Recommendation quality: regret vs exhaustive optimum (tiny scale)";
  let cases = Xia_eval.Eval.run ~small:true Xia_eval.Eval.default_specs in
  List.iter (fun c -> Format.printf "%a@." Xia_eval.Eval.pp_case c) cases

(* ---------- Bechamel micro-benchmarks ---------- *)

let micro () =
  header "Micro-benchmarks (bechamel)";
  let open Bechamel in
  let catalog = tpox_catalog () in
  let workload = Tpox.workload () in
  let stats = Catalog.stats catalog Tpox.security_table in
  let doc =
    let rng = Random.State.make [| 3 |] in
    Xia_xml.Packed.pack (Xia_xml.Packed.labels ()) (Tpox.security rng 0)
  in
  let q2 =
    Xia_query.Parser.parse_statement_exn
      {|for $sec in SECURITY('SDOC')/Security[Yield>4.5] where $sec/SecInfo/*/Sector = "Energy" return $sec|}
  in
  let quick_catalog = Catalog.create () in
  Tpox.load ~scale:Tpox.tiny_scale quick_catalog;
  let pat_g = Xia_xpath.Pattern.of_string "/Security//*" in
  let pat_s = Xia_xpath.Pattern.of_string "/Security/SecInfo/*/Sector" in
  let path = Xia_xpath.Parser.parse_exn "/Security[Yield>4.5]/SecInfo/*/Sector" in
  let nfa_of p =
    Xia_xpath.Nfa.of_steps
      (List.map (fun s -> (s.Xia_xpath.Pattern.axis, s.Xia_xpath.Pattern.test)) p)
  in
  (* Warm evaluator for the benefit micros: every sub-configuration below is
     already cached, so the measurement isolates the cache lookup path
     (fingerprint + shard probe) the searches actually sit on. *)
  let ev = Benefit.create catalog workload in
  let set = Enumeration.candidates workload in
  let basics = Candidate.basics set in
  ignore (Benefit.benefit ev basics);
  List.iter (fun c -> ignore (Benefit.individual_benefit ev c)) basics;
  (* Warm search: greedy+heuristics over 300 distinct synthetic queries,
     uncompressed, after one untimed run has cached every what-if cost, so
     the measurement is the search's own work (probes, interaction-group
     upkeep, coverage tests) and grows with the workload if that work
     does. *)
  let search_wl = Synthetic.workload ~seed:17 catalog (Catalog.table_names catalog) 300 in
  let search_set = Enumeration.candidates search_wl in
  let search_ev = Benefit.create catalog search_wl in
  let search_budget = Benefit.config_size search_ev (Candidate.basics search_set) / 2 in
  ignore (Search.greedy_heuristics search_ev search_set ~budget:search_budget);
  let tests =
    [
      Test.make ~name:"xpath.parse"
        (Staged.stage (fun () ->
             ignore (Xia_xpath.Parser.parse_exn "/Security[Yield>4.5]/SecInfo/*/Sector")));
      Test.make ~name:"xpath.eval"
        (let path = Xia_xpath.Eval.path doc.labels path in
         Staged.stage (fun () -> ignore (Xia_xpath.Eval.eval path doc)));
      Test.make ~name:"nfa.containment"
        (Staged.stage (fun () ->
             ignore (Xia_xpath.Nfa.contained (nfa_of pat_s) (nfa_of pat_g))));
      Test.make ~name:"generalize.pair"
        (Staged.stage (fun () ->
             ignore
               (Xia_advisor.Generalize.pair pat_s
                  (Xia_xpath.Pattern.of_string "/Security/Symbol"))));
      Test.make ~name:"optimizer.enumerate"
        (Staged.stage (fun () -> ignore (Optimizer.enumerate_indexes q2)));
      Test.make ~name:"optimizer.evaluate"
        (Staged.stage (fun () ->
             ignore
               (Optimizer.optimize_costs ~virtual_config:[] [| Optimizer.prepare catalog q2 |])));
      (* One trie walk, served from the shared per-stats cache on repeats. *)
      Test.make ~name:"stats.matching"
        (Staged.stage (fun () -> ignore (Xia_storage.Path_stats.matching stats pat_g)));
      Test.make ~name:"benefit.basics_warm"
        (Staged.stage (fun () -> ignore (Benefit.benefit ev basics)));
      Test.make ~name:"benefit.single_warm"
        (Staged.stage (fun () ->
             ignore (Benefit.individual_benefit ev (List.hd basics))));
      Test.make ~name:"search.heuristics_warm"
        (Staged.stage (fun () ->
             ignore (Search.greedy_heuristics search_ev search_set ~budget:search_budget)));
      (* The cold what-if path over the same 300 queries: a fresh evaluator
         (every statement prepared and costed once) and a greedy+heuristics
         search whose probes all reach the optimizer, since nothing is
         cached yet. *)
      Test.make ~name:"optimizer.whatif_cold"
        (Staged.stage (fun () ->
             let ev = Benefit.create catalog search_wl in
             ignore (Search.greedy_heuristics ev search_set ~budget:search_budget)));
      Test.make ~name:"advisor.enumerate_workload"
        (Staged.stage (fun () -> ignore (Enumeration.basic_candidates catalog workload)));
      (* Validation's document scan: Q2 without indexes over the quick TPoX
         catalog (300 SECURITY documents, whatever the harness scale), so
         every document is visited, charged and tested against the where
         clause. *)
      Test.make ~name:"executor.scan"
        (Staged.stage (fun () ->
             ignore (Xia_optimizer.Executor.run_statement quick_catalog q2)));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) () in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg [ instance ] test in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some (est :: _) -> Format.printf "  %-32s %14.1f ns/run@." name est
          | Some [] | None -> Format.printf "  %-32s (no estimate)@." name)
        (Analyze.all ols instance raw))
    tests

(* ---------- Observability overhead (enabled vs disabled) ---------- *)

(* The acceptance bar for the observability layer: with the master switch
   off, the instrumented hot paths (statistics matching, warm benefit
   lookups) must cost the same as before instrumentation to within noise.
   This measures each micro with the switch off and on and prints the
   ratio; the off-mode numbers are comparable to the [micro] rows of the
   same name. *)
let micro_obs () =
  header "Observability overhead: micro-benchmarks with tracing off vs on";
  let open Bechamel in
  let catalog = tpox_catalog () in
  let workload = Tpox.workload () in
  let stats = Catalog.stats catalog Tpox.security_table in
  let pat_g = Xia_xpath.Pattern.of_string "/Security//*" in
  let ev = Benefit.create catalog workload in
  let set = Enumeration.candidates workload in
  let basics = Candidate.basics set in
  ignore (Benefit.benefit ev basics);
  List.iter (fun c -> ignore (Benefit.individual_benefit ev c)) basics;
  let cases =
    [
      ("stats.matching", fun () -> ignore (Xia_storage.Path_stats.matching stats pat_g));
      ("benefit.single_warm", fun () -> ignore (Benefit.individual_benefit ev (List.hd basics)));
      ("benefit.basics_warm", fun () -> ignore (Benefit.benefit ev basics));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) () in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let measure name f =
    let raw = Benchmark.all cfg [ instance ] (Test.make ~name (Staged.stage f)) in
    let results = Analyze.all ols instance raw in
    Hashtbl.fold
      (fun _ ols acc ->
        match Analyze.OLS.estimates ols with Some (est :: _) -> est | _ -> acc)
      results Float.nan
  in
  Format.printf "  %-24s %14s %14s %9s@." "micro" "off (ns)" "on (ns)" "overhead";
  List.iter
    (fun (name, f) ->
      let off = measure name f in
      let on = Obs.with_enabled true (fun () -> measure name f) in
      (* Spans recorded while measuring with the switch on are observability
         noise, not exhibit telemetry: drop them. *)
      ignore (Trace.flush ());
      Format.printf "  %-24s %14.1f %14.1f %8.1f%%@." name off on
        (100.0 *. ((on /. off) -. 1.0)))
    cases

(* ---------- machine-readable benchmark reports ---------- *)

(* One record per exhibit run: wall-clock plus the deltas of the process-wide
   optimizer-call and Enumerate-Indexes-call counters, plus the phase
   breakdown aggregated from the exhibit's trace spans (observability is on
   while exhibits run): per span name, how many spans fired and their total
   self-reported duration. *)
type phase = { ph_name : string; ph_count : int; ph_seconds : float }

type exhibit_record = {
  ex_name : string;
  wall_seconds : float;
  optimizer_calls : int;  (* invocations: a batch of any size counts one *)
  raw_calls : int;
      (* per-statement equivalent: invocations + batch setups saved *)
  enumerate_calls : int;
      (* Enumerate Indexes passes: compression makes one per distinct
         statement, not one per statement *)
  alloc_words : float option;  (* only from an exhibit that measures its own *)
  phases : phase list;
}

(* Aggregate a flushed span list by span name, largest total first. *)
let phases_of_spans spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s : Trace.span) ->
      let count, total =
        Option.value ~default:(0, 0.0) (Hashtbl.find_opt tbl s.Trace.name)
      in
      Hashtbl.replace tbl s.Trace.name
        (count + 1, total +. (s.Trace.stop_s -. s.Trace.start_s)))
    spans;
  Hashtbl.fold
    (fun ph_name (ph_count, ph_seconds) acc -> { ph_name; ph_count; ph_seconds } :: acc)
    tbl []
  |> List.sort (fun a b -> Float.compare b.ph_seconds a.ph_seconds)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let scale_name () = if !quick then "quick" else "full"

let write_advisor_json path records =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"bench\": \"xia-advisor-exhibits\",\n  \"scale\": %S,\n  \"exhibits\": [\n"
    (scale_name ());
  List.iteri
    (fun i r ->
      let phases =
        String.concat ", "
          (List.map
             (fun p ->
               Printf.sprintf "{\"name\": \"%s\", \"count\": %d, \"seconds\": %.4f}"
                 (json_escape p.ph_name) p.ph_count p.ph_seconds)
             r.phases)
      in
      let words =
        match r.alloc_words with
        | Some w -> Printf.sprintf " \"alloc_words\": %.0f," w
        | None -> ""
      in
      Printf.fprintf oc
        "    {\"name\": \"%s\", \"wall_seconds\": %.4f, \"optimizer_calls\": %d, \"optimizer_calls_raw\": %d, \"enumerate_calls\": %d,%s \"phases\": [%s]}%s\n"
        (json_escape r.ex_name) r.wall_seconds r.optimizer_calls r.raw_calls
        r.enumerate_calls words phases
        (if i = List.length records - 1 then "" else ","))
    records;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Format.printf "@.wrote %s (%d exhibits)@." path (List.length records)

(* ---------- main ---------- *)

let experiments =
  [
    ("table1", table1);
    ("fig2", fig2);
    ("fig3", fig3);
    ("table3", table3);
    ("table4", table4);
    ("fig4", fig4);
    ("fig5", fig5);
    ("xmark", xmark);
    ("accuracy", accuracy);
    ("maint", maint);
    ("beta", beta);
    ("hist", hist);
    ("calls", calls);
    ("ixor", ixor);
    ("scale", scale);
    ("scale10k", scale10k);
    ("scale10k-raw", scale10k_raw);
    ("walk", walk);
    ("shapes", shapes);
    ("executor", executor);
    ("scan", scan);
    ("upkeep", upkeep);
    ("whatif", whatif);
    ("pool", pool);
    ("candidates", candidates);
    ("read", read);
    ("load", load);
    ("lint", lint);
    ("eval-quality", eval_quality);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args =
    List.filter
      (fun a ->
        if String.equal a "quick" then begin
          quick := true;
          false
        end
        else true)
      args
  in
  let selected =
    match args with
    | [] -> List.map fst experiments @ [ "micro"; "micro-obs" ]
    | l -> l
  in
  Format.printf "XML Index Advisor - experiment harness%s@."
    (if !quick then " (quick scale)" else "");
  let records = ref [] in
  let instrumented name f =
    let calls0 = Atomic.get Optimizer.counters.Optimizer.optimize_calls in
    let saved0 = Atomic.get Optimizer.counters.Optimizer.batch_setup_saved in
    let enums0 = Atomic.get Optimizer.counters.Optimizer.enumerate_calls in
    (* Exhibits run with observability on so the record gets a per-phase
       breakdown; micro-benchmarks below run with it off (the overhead of
       the enabled path is itself measured by the micro-obs experiment). *)
    Obs.set_enabled true;
    ignore (Trace.flush ());
    let (), wall_seconds = Trace.timed ("exhibit." ^ name) f in
    Obs.set_enabled false;
    let phases = phases_of_spans (Trace.flush ()) in
    records :=
      {
        ex_name = name;
        wall_seconds;
        optimizer_calls =
          Atomic.get Optimizer.counters.Optimizer.optimize_calls - calls0;
        raw_calls =
          Atomic.get Optimizer.counters.Optimizer.optimize_calls - calls0
          + Atomic.get Optimizer.counters.Optimizer.batch_setup_saved
          - saved0;
        enumerate_calls =
          Atomic.get Optimizer.counters.Optimizer.enumerate_calls - enums0;
        alloc_words = take_alloc_words ();
        phases;
      }
      :: !records
  in
  List.iter
    (fun name ->
      if String.equal name "micro" then micro ()
      else if String.equal name "micro-obs" then micro_obs ()
      else
        match List.assoc_opt name experiments with
        | Some f -> instrumented name f
        | None ->
            Format.printf "unknown experiment %S; available: %s, micro, micro-obs@." name
              (String.concat ", " (List.map fst experiments)))
    selected;
  if !records <> [] then write_advisor_json "BENCH_advisor.json" (List.rev !records);
  Format.printf "@.Done.@."
