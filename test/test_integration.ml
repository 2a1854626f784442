(* Cross-module integration tests: whole-pipeline invariants on both
   benchmarks, and properties tying estimation to execution. *)

module A = Xia_advisor.Advisor
module B = Xia_advisor.Benefit
module C = Xia_advisor.Candidate
module S = Xia_advisor.Search
module Cat = Xia_index.Catalog
module D = Xia_index.Index_def
module W = Xia_workload.Workload

let tc name f = Alcotest.test_case name `Quick f

let xmark_fixture =
  lazy
    (let catalog = Cat.create () in
     Xia_workload.Xmark.load ~scale:Xia_workload.Xmark.tiny_scale catalog;
     let wl = Xia_workload.Xmark.workload () in
     (catalog, wl))

let xmark_tests =
  [
    tc "advisor end-to-end on xmark" (fun () ->
        let catalog, wl = Lazy.force xmark_fixture in
        let r = A.advise catalog wl ~budget:(8 * 1024 * 1024) A.Greedy_heuristics in
        Alcotest.(check bool) "has indexes" true (List.length (A.indexes r) > 0);
        Alcotest.(check bool) "speedup" true (r.A.est_speedup >= 1.0));
    tc "xmark recommendations execute correctly" (fun () ->
        let catalog, wl = Lazy.force xmark_fixture in
        let r = A.advise catalog wl ~budget:(8 * 1024 * 1024) A.Top_down_full in
        (* Row counts must be identical with and without the indexes. *)
        let rows defs =
          Cat.drop_all_indexes catalog;
          List.iter (fun d -> ignore (Cat.create_index catalog d)) defs;
          let counts =
            List.map
              (fun (i : W.item) ->
                (Xia_optimizer.Executor.run_statement catalog i.W.statement)
                  .Xia_optimizer.Executor.rows)
              wl
          in
          Cat.drop_all_indexes catalog;
          counts
        in
        Alcotest.(check (list int)) "same rows" (rows []) (rows (A.indexes r)));
  ]

let session =
  lazy
    (let catalog = Lazy.force Helpers.shared_catalog in
     A.create_session catalog (Xia_workload.Tpox.workload ()))

let pipeline_tests =
  [
    tc "affected sets point to statements that expose the pattern" (fun () ->
        let s = Lazy.force session in
        (* affected sets index the evaluator's statements *)
        let items =
          Array.of_list (Xia_advisor.Workload_summary.workload (B.summary s.A.evaluator))
        in
        List.iter
          (fun (c : C.t) ->
            C.Int_set.iter
              (fun i ->
                let pats =
                  Xia_query.Rewriter.indexable_patterns items.(i).W.statement
                in
                Alcotest.(check bool)
                  (Printf.sprintf "cand %d affects stmt %d" c.C.id i)
                  true
                  (List.exists
                     (fun (table, pattern, dtype) ->
                       String.equal table c.C.def.D.table
                       && D.equal_data_type dtype c.C.def.D.dtype
                       && Xia_xpath.Pattern.covers ~general:c.C.def.D.pattern
                            ~specific:pattern)
                     pats))
              c.C.affected)
          (C.to_list s.A.candidates));
    tc "DAG parents cover their children" (fun () ->
        let s = Lazy.force session in
        List.iter
          (fun (c : C.t) ->
            List.iter
              (fun (ch : C.t) ->
                Alcotest.(check bool) "covers" true
                  (D.covers ~general:c.C.def ~specific:ch.C.def))
              (C.children_of s.A.candidates c))
          (C.to_list s.A.candidates));
    tc "DAG is acyclic" (fun () ->
        let s = Lazy.force session in
        let set = s.A.candidates in
        let visiting = Hashtbl.create 64 and done_ = Hashtbl.create 64 in
        let rec dfs (c : C.t) =
          if Hashtbl.mem done_ c.C.id then ()
          else if Hashtbl.mem visiting c.C.id then Alcotest.fail "cycle in DAG"
          else begin
            Hashtbl.add visiting c.C.id ();
            List.iter dfs (C.children_of set c);
            Hashtbl.remove visiting c.C.id;
            Hashtbl.add done_ c.C.id ()
          end
        in
        List.iter dfs (C.to_list set));
    tc "benefit equals base minus configured workload cost for query-only" (fun () ->
        let s = Lazy.force session in
        let config = C.basics s.A.candidates in
        let benefit = B.benefit s.A.evaluator config in
        let base = B.base_workload_cost s.A.evaluator in
        let configured = B.workload_cost s.A.evaluator config in
        (* No DML: maintenance is zero, so the decomposed (sub-configuration)
           benefit must equal the monolithic difference. *)
        Alcotest.(check bool) "consistent" true
          (Float.abs (benefit -. (base -. configured)) < 1e-6 *. Float.max 1.0 base));
    tc "est_speedup consistent with benefit accounting" (fun () ->
        let s = Lazy.force session in
        let r = A.session_advise s ~budget:max_int A.All_index in
        Alcotest.(check bool) "speedup = base/new" true
          (Float.abs (r.A.est_speedup -. (r.A.base_cost /. r.A.new_cost)) < 1e-9));
  ]

let monotonicity_properties =
  [
    QCheck.Test.make ~count:40
      ~name:"adding an index never hurts a query-only workload"
      QCheck.(int_range 0 1_000_000)
      (fun seed ->
        let s = Lazy.force session in
        let all = C.to_list s.A.candidates in
        let rng = Random.State.make [| seed |] in
        let subset = List.filter (fun _ -> Random.State.bool rng) all in
        let extra = List.nth all (Random.State.int rng (List.length all)) in
        let with_extra =
          if List.exists (fun (c : C.t) -> c.C.id = extra.C.id) subset then subset
          else extra :: subset
        in
        B.benefit s.A.evaluator with_extra >= B.benefit s.A.evaluator subset -. 1e-6);
    QCheck.Test.make ~count:20 ~name:"search outcomes always fit their budget"
      QCheck.(int_range 1 64)
      (fun mb ->
        let s = Lazy.force session in
        let budget = mb * 64 * 1024 in
        List.for_all
          (fun alg ->
            (A.session_advise s ~budget alg).A.outcome.S.size <= budget)
          A.all_algorithms);
  ]

let suites =
  [
    ("integration.xmark", xmark_tests);
    ("integration.pipeline", pipeline_tests);
    Helpers.qsuite "integration.properties" monotonicity_properties;
  ]
