(* Tests for enumeration, benefit evaluation, search algorithms and the
   end-to-end advisor, plus the determinism of searches across fresh
   evaluators and two regressions (what-if exception safety, the DP
   small-budget clamp). *)

module A = Xia_advisor.Advisor
module R = Xia_advisor.Report
module B = Xia_advisor.Benefit
module C = Xia_advisor.Candidate
module S = Xia_advisor.Search
module En = Xia_advisor.Enumeration
module Cat = Xia_index.Catalog
module D = Xia_index.Index_def
module W = Xia_workload.Workload

let tc name f = Alcotest.test_case name `Quick f

(* Deterministic fixture shared by the suite: tiny TPoX + its 11 queries.
   The catalog is only read (virtual indexes are set and cleared). *)
let fixture =
  lazy
    (let catalog = Lazy.force Helpers.shared_catalog in
     let wl = Xia_workload.Tpox.workload () in
     let session = A.create_session catalog wl in
     session)

let enumeration_tests =
  [
    tc "basic candidates cover all queries" (fun () ->
        let s = Lazy.force fixture in
        let basics = C.basics s.A.candidates in
        Alcotest.(check bool) "many" true (List.length basics >= 10);
        (* every query is in some candidate's affected set *)
        let covered =
          List.fold_left
            (fun acc c -> C.Int_set.union acc c.C.affected)
            C.Int_set.empty basics
        in
        Alcotest.(check int) "all stmts" (W.size (Xia_workload.Tpox.workload ()))
          (C.Int_set.cardinal covered));
    tc "generalization adds candidates" (fun () ->
        let s = Lazy.force fixture in
        Alcotest.(check bool) "generals exist" true
          (List.length (C.generals s.A.candidates) > 0));
    tc "shared pattern has two affected statements" (fun () ->
        let s = Lazy.force fixture in
        (* /Security/Symbol is used by Q1 and Q3 *)
        let d =
          D.make ~table:"SECURITY" ~pattern:(Helpers.pattern "/Security/Symbol")
            ~dtype:D.Dstring ()
        in
        match C.find_def s.A.candidates d with
        | Some c -> Alcotest.(check int) "two" 2 (C.Int_set.cardinal c.C.affected)
        | None -> Alcotest.fail "symbol candidate missing");
  ]

let benefit_tests =
  [
    tc "empty configuration has zero benefit" (fun () ->
        let s = Lazy.force fixture in
        Alcotest.(check (float 0.0001)) "zero" 0.0 (B.benefit s.A.evaluator []));
    tc "benefit of a useful index is positive" (fun () ->
        let s = Lazy.force fixture in
        let d =
          D.make ~table:"SECURITY" ~pattern:(Helpers.pattern "/Security/Symbol")
            ~dtype:D.Dstring ()
        in
        let c = Option.get (C.find_def s.A.candidates d) in
        Alcotest.(check bool) "positive" true (B.individual_benefit s.A.evaluator c > 0.0));
    tc "benefit never exceeds base cost" (fun () ->
        let s = Lazy.force fixture in
        let all = C.to_list s.A.candidates in
        Alcotest.(check bool) "bounded" true
          (B.benefit s.A.evaluator all <= B.base_workload_cost s.A.evaluator));
    tc "sub-configurations split disjoint affected sets" (fun () ->
        let s = Lazy.force fixture in
        let by_pat p table =
          let d = D.make ~table ~pattern:(Helpers.pattern p) ~dtype:D.Dstring () in
          Option.get (C.find_def s.A.candidates d)
        in
        let sec = by_pat "/Security/Symbol" "SECURITY" in
        let cust = by_pat "/Customer/Nationality" "CUSTACC" in
        Alcotest.(check int) "two groups" 2
          (List.length (B.groups (B.extend s.A.evaluator B.empty [ sec; cust ]))));
    tc "sub-configurations merge overlapping affected sets" (fun () ->
        let s = Lazy.force fixture in
        let by p dt =
          let d = D.make ~table:"SECURITY" ~pattern:(Helpers.pattern p) ~dtype:dt () in
          Option.get (C.find_def s.A.candidates d)
        in
        (* Yield and Sector both come from Q2 -> same sub-configuration. *)
        let yield = by "/Security/Yield" D.Ddouble in
        let sector = by "/Security/SecInfo/*/Sector" D.Dstring in
        Alcotest.(check int) "one group" 1
          (List.length (B.groups (B.extend s.A.evaluator B.empty [ yield; sector ]))));
    tc "cache avoids repeat optimizer calls" (fun () ->
        let catalog = Lazy.force Helpers.shared_catalog in
        let ev = B.create catalog (Xia_workload.Tpox.workload ()) in
        let set = En.candidates (Xia_workload.Tpox.workload ()) in
        let c = List.hd (C.basics set) in
        let _ = B.benefit ev [ c ] in
        let calls = B.evaluations ev in
        let _ = B.benefit ev [ c ] in
        Alcotest.(check int) "no new calls" calls (B.evaluations ev);
        Alcotest.(check bool) "hit recorded" true (B.cache_hits ev > 0));
    tc "extending by a member is a no-op" (fun () ->
        (* greedy+heuristics probes a general index's children on top of a
           configuration that may already hold some of them. *)
        let catalog = Lazy.force Helpers.shared_catalog in
        let wl = Xia_workload.Tpox.workload_with_updates ~update_freq:50.0 () in
        let set = En.candidates wl in
        let g = List.find (fun c -> C.children_of set c <> []) (C.generals set) in
        let children = C.children_of set g in
        let child = List.hd children in
        let others = List.filter (fun (c : C.t) -> c.C.id <> child.C.id) children in
        let ids l = List.map (fun (c : C.t) -> c.C.id) l in
        let ev = B.create catalog wl in
        let cfg = B.extend ev B.empty [ child ] in
        let calls = B.evaluations ev in
        Alcotest.(check (list int)) "member again" [ child.C.id ]
          (ids (B.members (B.extend ev cfg [ child ])));
        Alcotest.(check int) "no evaluation" calls (B.evaluations ev);
        let probed = B.extend ev cfg children in
        Alcotest.(check (list int)) "child listed once" (ids (others @ [ child ]))
          (ids (B.members probed));
        let once = B.benefit (B.create catalog wl) (others @ [ child ]) in
        Alcotest.(check bool) "indexed and charged once" true
          (Float.equal once (B.value ev probed)));
    tc "maintenance charge positive with DML" (fun () ->
        let catalog = Lazy.force Helpers.shared_catalog in
        let wl = Xia_workload.Tpox.workload_with_updates ~update_freq:50.0 () in
        let ev = B.create catalog wl in
        let set = En.candidates wl in
        let order_idx =
          List.filter
            (fun c -> String.equal c.C.def.D.table Xia_workload.Tpox.order_table)
            (C.basics set)
        in
        Alcotest.(check bool) "nonempty" true (order_idx <> []);
        Alcotest.(check bool) "charged" true (B.maintenance_charge ev order_idx > 0.0));
    tc "an evaluator is bound to the statistics at its creation" (fun () ->
        (* One evaluator is built before the workload's DML runs for real,
           the other over an untouched catalog: every figure the first one
           reads after the DML must be the second one's. *)
        let wl = Xia_workload.Tpox.workload_with_updates () in
        let figures catalog ~before_reads =
          let ev = B.create catalog wl in
          let basics = C.basics (En.candidates wl) in
          before_reads ();
          (B.config_size ev basics, B.maintenance_charge ev basics, B.benefit ev basics)
        in
        let changed = Helpers.fresh_tiny_catalog () and untouched = Helpers.fresh_tiny_catalog () in
        let generations c =
          List.map (fun t -> Xia_storage.Doc_store.generation (Cat.store c t)) (Cat.table_names c)
        in
        let size, mc, benefit =
          figures changed ~before_reads:(fun () -> ignore (A.execute_workload changed wl []))
        in
        Alcotest.(check bool)
          "the DML changed a table" true
          (generations changed <> generations untouched);
        let size', mc', benefit' = figures untouched ~before_reads:ignore in
        Alcotest.(check int) "config_size" size' size;
        Alcotest.(check bool) "maintenance_charge" true (Float.equal mc' mc);
        Alcotest.(check bool) "benefit" true (Float.equal benefit' benefit);
        Alcotest.(check bool) "nonzero figures" true (size > 0 && mc > 0.0 && benefit > 0.0);
        (* Sizes and maintenance charges too: 300 orders inserted into
           XORDER through the executor after the evaluator is built (an
           evaluator that read live statistics reported 253,952 B). *)
        let grown = Helpers.fresh_tiny_catalog () in
        let rng = Random.State.make [| 43 |] in
        let size'', mc'', _ =
          figures grown ~before_reads:(fun () ->
              for i = 1 to 300 do
                let order =
                  Xia_workload.Tpox.order rng (10_000 + i) ~n_securities:300 ~n_customers:150
                in
                ignore
                  (Xia_optimizer.Executor.run_statement grown
                     (Helpers.statement
                        ("insert into XORDER " ^ Xia_xml.Printer.to_string order)))
              done)
        in
        Alcotest.(check int) "orders inserted" 500
          (List.length
             (Xia_storage.Doc_store.doc_ids (Cat.store grown Xia_workload.Tpox.order_table)));
        Alcotest.(check int) "config_size after inserts" 237_568 size'';
        Alcotest.(check bool) "maintenance_charge after inserts" true (Float.equal mc' mc''));
    tc "heavy insert traffic erodes an index's benefit" (fun () ->
        (* Inserts gain nothing from indexes but pay maintenance, so raising
           their frequency strictly lowers the benefit. *)
        let catalog = Lazy.force Helpers.shared_catalog in
        let insert =
          Xia_workload.Workload.item "INS"
            (Helpers.statement
               {|insert into XORDER <FIXML><Order ID="X1" Acct="A1" Side="1"><OrdQty Qty="10"/></Order></FIXML>|})
        in
        let pick freq =
          let wl =
            Xia_workload.Tpox.workload ()
            @ [ { insert with Xia_workload.Workload.freq } ]
          in
          let ev = B.create catalog wl in
          let set = En.candidates wl in
          let d =
            D.make ~table:Xia_workload.Tpox.order_table
              ~pattern:(Helpers.pattern "/FIXML/Order/@ID") ~dtype:D.Dstring ()
          in
          let c = Option.get (C.find_def set d) in
          B.individual_benefit ev c
        in
        let light = pick 1.0 and heavy = pick 100_000.0 in
        Alcotest.(check bool) "light positive" true (light > 0.0);
        Alcotest.(check bool) "heavy lower" true (heavy < light));
    tc "a failed evaluation re-raises, counts nothing, and the evaluator goes on"
      (fun () ->
        (* A virtual index whose pattern is longer than the NFA's 60 steps
           makes the what-if call raise: the cache's failure path. *)
        let catalog = Lazy.force Helpers.shared_catalog in
        let wl = Xia_workload.Tpox.workload () in
        let ev = B.create catalog wl in
        let long =
          Helpers.pattern ("/Security" ^ String.concat "" (List.init 60 (fun _ -> "/Symbol")))
        in
        let c =
          C.add (C.create_set ()) ~origin:C.Basic
            (D.make ~table:"SECURITY" ~pattern:long ~dtype:D.Dstring ())
        in
        List.iteri (fun i _ -> C.mark_affected c i) wl;
        let raises () =
          match B.benefit ev [ c ] with
          | _ -> Alcotest.fail "the over-long pattern was costed"
          | exception Invalid_argument m ->
              Alcotest.(check string) "exception" "Nfa.of_steps: pattern too long" m
        in
        raises ();
        raises ();
        Alcotest.(check int) "evaluations" 1 (B.evaluations ev);
        Alcotest.(check int) "cache hits" 0 (B.cache_hits ev);
        let set = En.candidates wl in
        let symbol =
          Option.get
            (C.find_def set
               (D.make ~table:"SECURITY" ~pattern:(Helpers.pattern "/Security/Symbol")
                  ~dtype:D.Dstring ()))
        in
        Alcotest.(check bool) "later request served" true (B.benefit ev [ symbol ] > 0.0);
        Alcotest.(check int) "one more evaluation" 2 (B.evaluations ev));
  ]

let budget_of session frac =
  let all = A.session_advise session ~budget:max_int A.All_index in
  int_of_float (frac *. float_of_int all.A.outcome.S.size)

(* ---------- incremental configurations = one-shot partition ---------- *)

(* TPoX plus synthetic statements: overlapping affected sets build
   multi-member groups, and the TPoX DML statements charge maintenance. *)
let interaction_fixture =
  lazy
    (let catalog = Lazy.force Helpers.shared_catalog in
     let wl =
       Xia_workload.Tpox.workload ()
       @ Xia_workload.Synthetic.workload ~seed:11 catalog (Cat.table_names catalog) 8
     in
     (catalog, wl, Array.of_list (C.to_list (En.candidates wl))))

let ids l = List.map (fun (c : C.t) -> c.C.id) l

(* Extending [ys] by [xs] scores and partitions exactly like evaluating
   [xs @ ys] in one shot (each on a fresh evaluator, so neither borrows the
   other's cache), the groups match the pairwise oracle, and two fresh
   evaluators count the same. *)
let qcheck_incremental =
  QCheck.Test.make ~count:25 ~name:"extend ys then xs = benefit (xs @ ys)"
    QCheck.(make Gen.(int_range 0 100_000))
    (fun seed ->
      let catalog, wl, cands = Lazy.force interaction_fixture in
      let rng = Random.State.make [| seed |] in
      let picked =
        Array.to_list cands
        |> List.filter (fun _ -> Random.State.int rng 4 = 0)
        |> List.map (fun c -> (Random.State.bits rng, c))
        |> List.sort (fun (a, _) (b, _) -> compare a b)
        |> List.map snd
      in
      let split = Random.State.int rng (List.length picked + 1) in
      let xs = List.filteri (fun i _ -> i < split) picked in
      let ys = List.filteri (fun i _ -> i >= split) picked in
      let incremental () =
        let ev = B.create catalog wl in
        let cfg = B.extend ev (B.extend ev B.empty ys) xs in
        (B.value ev cfg, B.groups cfg, B.evaluations ev, B.cache_hits ev)
      in
      let v1, groups, evals1, hits1 = incremental () in
      let v2, _, evals2, hits2 = incremental () in
      let one_shot = B.benefit (B.create catalog wl) (xs @ ys) in
      if not (Float.equal v1 one_shot) then
        QCheck.Test.fail_reportf "value %h <> one-shot benefit %h (seed %d)" v1 one_shot seed;
      if List.map ids groups <> List.map ids (Benefit_oracle.sub_configurations (xs @ ys))
      then QCheck.Test.fail_reportf "groups differ from the oracle (seed %d)" seed;
      Float.equal v1 v2 && evals1 = evals2 && hits1 = hits2)

let search_tests =
  [
    tc "every algorithm respects the budget" (fun () ->
        let s = Lazy.force fixture in
        let budget = budget_of s 0.5 in
        List.iter
          (fun alg ->
            let r = A.session_advise s ~budget alg in
            Alcotest.(check bool)
              (A.algorithm_name alg ^ " fits")
              true
              (r.A.outcome.S.size <= budget))
          A.all_algorithms);
    tc "zero budget recommends nothing" (fun () ->
        let s = Lazy.force fixture in
        List.iter
          (fun alg ->
            let r = A.session_advise s ~budget:0 alg in
            Alcotest.(check int) (A.algorithm_name alg) 0 (List.length r.A.outcome.S.config))
          A.all_algorithms);
    tc "speedup grows with budget" (fun () ->
        let s = Lazy.force fixture in
        let sp frac =
          (A.session_advise s ~budget:(budget_of s frac) A.Greedy_heuristics).A.est_speedup
        in
        let s25 = sp 0.25 and s100 = sp 1.0 in
        Alcotest.(check bool) "monotone-ish" true (s100 >= s25));
    tc "all-index speedup at least matches heuristics at full budget" (fun () ->
        let s = Lazy.force fixture in
        let all = A.session_advise s ~budget:max_int A.All_index in
        let h = A.session_advise s ~budget:all.A.outcome.S.size A.Greedy_heuristics in
        Alcotest.(check bool) "bound" true (all.A.est_speedup >= h.A.est_speedup -. 0.01));
    tc "heuristics avoids redundant generals" (fun () ->
        let s = Lazy.force fixture in
        let r = A.session_advise s ~budget:(budget_of s 2.0) A.Greedy_heuristics in
        (* with generous budget heuristics should stay essentially specific *)
        Alcotest.(check bool) "few generals" true (r.A.general_count <= 1));
    tc "top-down recommends generals when budget allows" (fun () ->
        let s = Lazy.force fixture in
        let r2 = A.session_advise s ~budget:(budget_of s 2.0) A.Top_down_lite in
        let r05 = A.session_advise s ~budget:(budget_of s 0.5) A.Top_down_lite in
        Alcotest.(check bool) "more generals with more budget" true
          (r2.A.general_count >= r05.A.general_count);
        Alcotest.(check bool) "some generals at 2x" true (r2.A.general_count > 0));
    tc "dp beats or ties greedy on its own objective" (fun () ->
        let s = Lazy.force fixture in
        let budget = budget_of s 0.4 in
        let sum_indiv (r : A.recommendation) =
          List.fold_left
            (fun acc c -> acc +. B.individual_benefit s.A.evaluator c)
            0.0 r.A.outcome.S.config
        in
        let g = A.session_advise s ~budget A.Greedy in
        let dp = A.session_advise s ~budget A.Dynamic_programming in
        Alcotest.(check bool) "dp >= greedy" true
          (sum_indiv dp >= sum_indiv g -. 1e-6));
    tc "configs contain no duplicate indexes" (fun () ->
        let s = Lazy.force fixture in
        List.iter
          (fun alg ->
            let r = A.session_advise s ~budget:(budget_of s 1.5) alg in
            let keys = List.map (fun c -> D.logical_key c.C.def) r.A.outcome.S.config in
            Alcotest.(check int) (A.algorithm_name alg)
              (List.length keys)
              (List.length (List.sort_uniq String.compare keys)))
          A.all_algorithms);
    tc "recommended indexes are actually used by the optimizer" (fun () ->
        let s = Lazy.force fixture in
        let r = A.session_advise s ~budget:(budget_of s 1.0) A.Greedy_heuristics in
        let defs = A.indexes r in
        let used =
          List.concat_map
            (fun (item : W.item) ->
              Xia_optimizer.Plan.indexes_used
                (Xia_optimizer.Optimizer.optimize ~mode:Xia_optimizer.Optimizer.Evaluate
                   ~virtual_config:defs (Lazy.force Helpers.shared_catalog)
                   item.W.statement))
            (Xia_workload.Tpox.workload ())
        in
        List.iter
          (fun d ->
            Alcotest.(check bool)
              (Printf.sprintf "%s used" (Xia_xpath.Pattern.to_string d.D.pattern))
              true
              (List.exists (D.same d) used))
          defs);
  ]

let advisor_tests =
  [
    tc "advise end-to-end produces a sane recommendation" (fun () ->
        let catalog = Lazy.force Helpers.shared_catalog in
        let wl = Xia_workload.Tpox.workload () in
        let r = A.advise catalog wl ~budget:(4 * 1024 * 1024) A.Greedy_heuristics in
        Alcotest.(check bool) "has indexes" true (List.length (A.indexes r) > 0);
        Alcotest.(check bool) "speedup > 1" true (r.A.est_speedup > 1.0);
        Alcotest.(check bool) "cost improved" true (r.A.new_cost < r.A.base_cost));
    tc "estimated speedup of empty config is 1" (fun () ->
        let catalog = Lazy.force Helpers.shared_catalog in
        let wl = Xia_workload.Tpox.workload () in
        Alcotest.(check (float 0.001)) "one" 1.0
          (R.evaluate_configuration catalog wl []).R.est_speedup);
    tc "actual speedup > 1 with recommended indexes" (fun () ->
        let catalog = Helpers.fresh_tiny_catalog () in
        let wl = Xia_workload.Tpox.workload () in
        let r = A.advise catalog wl ~budget:(4 * 1024 * 1024) A.Greedy_heuristics in
        let speedup = A.actual_speedup catalog wl (A.indexes r) in
        Alcotest.(check bool) "faster" true (speedup > 1.0));
    tc "training on fewer queries generalizes with top-down" (fun () ->
        let catalog = Lazy.force Helpers.shared_catalog in
        let wl = Xia_workload.Tpox.workload () in
        let train = W.prefix 4 wl in
        let td = A.advise catalog train ~budget:(32 * 1024 * 1024) A.Top_down_lite in
        let h = A.advise catalog train ~budget:(32 * 1024 * 1024) A.Greedy_heuristics in
        let sp defs = (R.evaluate_configuration catalog wl defs).R.est_speedup in
        (* Top-down recommends more general indexes, and its configuration is
           competitive on the full (partially unseen) workload. *)
        Alcotest.(check bool) "more general" true
          (td.A.general_count >= h.A.general_count);
        Alcotest.(check bool) "competitive" true
          (sp (A.indexes td) >= 0.8 *. sp (A.indexes h)));
    tc "drop recommendations flag unused and update-swamped indexes" (fun () ->
        let catalog = Helpers.fresh_tiny_catalog () in
        let wl = Xia_workload.Tpox.workload_with_updates ~update_freq:100_000.0 () in
        (* A useful index, an unused one, and one on the update-hot table. *)
        let mk table p =
          D.make ~table ~pattern:(Helpers.pattern p) ~dtype:D.Dstring ()
        in
        let useful = mk "SECURITY" "/Security/Symbol" in
        let unused = mk "SECURITY" "/Security/Name" in
        let hot = mk Xia_workload.Tpox.order_table "/FIXML/Order/@Acct" in
        List.iter
          (fun d -> ignore (Cat.create_index catalog d))
          [ useful; unused; hot ];
        let drops = R.drop_recommendations catalog wl in
        Cat.drop_all_indexes catalog;
        let dropped d = List.exists (fun (x, _) -> D.same x d) drops in
        Alcotest.(check bool) "unused dropped" true (dropped unused);
        Alcotest.(check bool) "useful kept" false (dropped useful);
        Alcotest.(check bool) "hot dropped" true (dropped hot);
        (match List.find_opt (fun (x, _) -> D.same x unused) drops with
        | Some (_, R.Unused) -> ()
        | _ -> Alcotest.fail "expected Unused reason");
        match List.find_opt (fun (x, _) -> D.same x hot) drops with
        | Some (_, R.Maintenance_exceeds_benefit _) -> ()
        | _ -> Alcotest.fail "expected maintenance reason");
    tc "no drops recommended for a useful query-only configuration" (fun () ->
        let catalog = Helpers.fresh_tiny_catalog () in
        let wl = Xia_workload.Tpox.workload () in
        let d =
          D.make ~table:"SECURITY" ~pattern:(Helpers.pattern "/Security/Symbol")
            ~dtype:D.Dstring ()
        in
        ignore (Cat.create_index catalog d);
        let drops = R.drop_recommendations catalog wl in
        Cat.drop_all_indexes catalog;
        Alcotest.(check int) "none" 0 (List.length drops));
    tc "algorithm names are distinct" (fun () ->
        let names = List.map A.algorithm_name (A.All_index :: A.all_algorithms) in
        Alcotest.(check int) "distinct" (List.length names)
          (List.length (List.sort_uniq String.compare names)));
  ]

(* ---------- determinism across fresh evaluators ---------- *)

(* The interner, the index-definition id counter and the optimizer's
   memos live on after an evaluator is done with them.  A second fresh
   evaluator over the same candidates must still reproduce the first one
   bit for bit: no search result or counter may depend on that leftover
   state. *)

let tiny_workload catalog =
  Xia_workload.Tpox.workload ()
  @ Xia_workload.Synthetic.workload ~seed:11 catalog (Cat.table_names catalog) 8

let config_ids (o : S.outcome) = List.map (fun (c : C.t) -> c.C.id) o.S.config

let check_same_outcome label (a : S.outcome) (b : S.outcome) =
  Alcotest.(check (list int)) (label ^ " config") (config_ids a) (config_ids b);
  Alcotest.(check int) (label ^ " size") a.S.size b.S.size;
  Alcotest.(check bool) (label ^ " benefit") true (Float.equal a.S.benefit b.S.benefit);
  Alcotest.(check int) (label ^ " calls") a.S.optimizer_calls b.S.optimizer_calls

let differential_tests =
  let run_twice name search =
    tc (name ^ " identical across two fresh evaluators") (fun () ->
        let catalog = Lazy.force Helpers.shared_catalog in
        let workload = tiny_workload catalog in
        let set = En.candidates workload in
        let run () =
          let ev = B.create catalog workload in
          let all = S.all_index ev set in
          let o = search ev set ~budget:(all.S.size / 2) in
          (o, B.evaluations ev, B.cache_hits ev)
        in
        let o1, e1, h1 = run () in
        let o2, e2, h2 = run () in
        check_same_outcome name o1 o2;
        Alcotest.(check int) (name ^ " evaluations") e1 e2;
        Alcotest.(check int) (name ^ " cache hits") h1 h2)
  in
  [
    run_twice "greedy" (fun ev set ~budget -> S.greedy ev set ~budget);
    run_twice "greedy+heuristics" (fun ev set ~budget -> S.greedy_heuristics ev set ~budget);
    run_twice "top-down full" (fun ev set ~budget -> S.top_down_full ev set ~budget);
    run_twice "dp" S.dynamic_programming;
  ]

let qcheck_differential =
  QCheck.Test.make ~count:5 ~name:"random synthetic workloads: two fresh evaluators agree"
    QCheck.(make Gen.(int_range 1 1000))
    (fun seed ->
      let catalog = Lazy.force Helpers.shared_catalog in
      let workload = Xia_workload.Synthetic.workload ~seed catalog (Cat.table_names catalog) 10 in
      let set = En.candidates workload in
      let outcome () =
        let ev = B.create catalog workload in
        let all = S.all_index ev set in
        S.greedy_heuristics ev set ~budget:(max 1 (all.S.size / 2))
      in
      let o1 = outcome () and o2 = outcome () in
      config_ids o1 = config_ids o2 && o1.S.size = o2.S.size && Float.equal o1.S.benefit o2.S.benefit)

(* ---------- regression: exception safety of what-if evaluation ---------- *)

let exception_safety_tests =
  [
    tc "raising statement leaves later evaluations unaffected" (fun () ->
        let catalog = Helpers.fresh_tiny_catalog () in
        let good = W.of_strings [ {|for $s in SECURITY('SDOC')/Security where $s/Symbol = "X" return $s|} ] in
        let bad = W.of_strings [ "for $x in NO_SUCH_TABLE/a where $x/b = \"1\" return $x" ] in
        let d =
          D.make ~table:"SECURITY" ~pattern:(Helpers.pattern "/Security/Symbol") ~dtype:D.Dstring ()
        in
        let cost wl defs = (R.evaluate_configuration catalog wl defs).R.new_total in
        let base = cost good [] in
        (* The what-if evaluation of the bad workload raises mid-flight. *)
        (try ignore (cost bad [ d ]) with _ -> ());
        let base' = cost good [] in
        Alcotest.(check bool) "base cost unchanged" true (Float.equal base base'));
  ]

(* ---------- regression: DP with a budget below one granularity unit ---------- *)

let dp_tests =
  [
    tc "small budget still recommends a fitting index" (fun () ->
        let catalog = Lazy.force Helpers.shared_catalog in
        let workload = Xia_workload.Tpox.workload () in
        let set = En.candidates workload in
        let ev = B.create catalog workload in
        let pool =
          List.filter (fun (c : C.t) -> B.individual_benefit ev c > 0.0) (C.to_list set)
        in
        match List.sort (fun a b -> compare (C.size catalog a) (C.size catalog b)) pool with
        | [] -> Alcotest.fail "fixture has no beneficial candidate"
        | smallest :: _ ->
            (* Exactly one index fits. *)
            let budget = C.size catalog smallest in
            let o = S.dynamic_programming ev set ~budget in
            Alcotest.(check bool) "non-empty" true (o.S.config <> []);
            Alcotest.(check bool) "fits" true (o.S.size <= budget);
            (* Sub-page budget: the knapsack capacity in units used to
               truncate to 0; with the clamp the search still runs and
               (since no index is smaller than a page) returns empty. *)
            let tiny =
              S.dynamic_programming ev set ~budget:(Xia_storage.Cost_params.page_size - 1)
            in
            Alcotest.(check (list int)) "nothing fits" [] (config_ids tiny));
  ]

(* The last four suites keep the names they were first registered under,
   beside the tests of the since-deleted domain pool, so their results
   stay comparable from run to run. *)
let suites =
  [
    ("advisor.enumeration", enumeration_tests);
    ("advisor.benefit", benefit_tests);
    Helpers.qsuite "advisor.benefit.qcheck" [ qcheck_incremental ];
    ("advisor.search", search_tests);
    ("advisor.end_to_end", advisor_tests);
    ("par.differential", differential_tests);
    Helpers.qsuite "par.qcheck" [ qcheck_differential ];
    ("par.exception-safety", exception_safety_tests);
    ("par.dp-budget", dp_tests);
  ]
