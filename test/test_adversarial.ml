(* Adversarial and regression tests: deep documents, pathological patterns,
   and deterministic algorithm-ordering regressions observed in the paper
   experiments. *)

module Pat = Xia_xpath.Pattern
module E = Xia_xpath.Eval
module A = Xia_advisor.Advisor
module S = Xia_advisor.Search

let tc name f = Alcotest.test_case name `Quick f

let deep_doc depth =
  let rec build n = if n = 0 then Xia_xml.Types.leaf "leaf" "v" else
      Xia_xml.Types.element "n" [ build (n - 1) ] in
  build depth

let deep_tests =
  [
    tc "evaluation survives 2000-deep documents" (fun () ->
        let doc = deep_doc 2000 in
        let ms = E.eval doc (Helpers.xpath "//leaf") in
        Alcotest.(check int) "one leaf" 1 (List.length ms));
    tc "iter_nodes survives deep documents" (fun () ->
        let n = ref 0 in
        Xia_xml.Types.iter_nodes (fun _ _ _ -> incr n) (deep_doc 2000);
        (* 2000 wrappers + the leaf element; text nodes are not visited *)
        Alcotest.(check int) "nodes" 2001 !n);
    tc "serialization round-trips deep documents" (fun () ->
        let doc = deep_doc 1000 in
        let doc' = Xia_xml.Parser.parse_exn (Xia_xml.Printer.to_string doc) in
        Alcotest.(check bool) "equal" true (Xia_xml.Types.equal doc doc'));
    tc "wide documents" (fun () ->
        let doc =
          Xia_xml.Types.element "r"
            (List.init 5000 (fun i -> Xia_xml.Types.leaf "c" (string_of_int i)))
        in
        Alcotest.(check int) "all" 5000
          (List.length (E.eval doc (Helpers.xpath "/r/c"))));
  ]

let pattern_tests =
  [
    tc "long pattern containment" (fun () ->
        let mk n sep =
          Pat.of_string ("/" ^ String.concat sep (List.init n (fun _ -> "a")))
        in
        let child = mk 20 "/" and desc = mk 20 "//" in
        Alcotest.(check bool) "desc covers child" true
          (Pat.covers ~general:desc ~specific:child);
        Alcotest.(check bool) "child not covers desc" false
          (Pat.covers ~general:child ~specific:desc));
    tc "alternating wildcard/descendant containment" (fun () ->
        let g = Pat.of_string "//a//*//b" in
        let s = Pat.of_string "/a/x/y/z/b" in
        Alcotest.(check bool) "covers" true (Pat.covers ~general:g ~specific:s);
        Alcotest.(check bool) "not too short" false
          (Pat.covers ~general:g ~specific:(Pat.of_string "/a/b")));
    tc "recursive-label pattern matches repeated tags" (fun () ->
        let p = Pat.of_string "/n//n//leaf" in
        Alcotest.(check bool) "deep" true
          (Pat.accepts p (List.init 10 (fun _ -> "n") @ [ "leaf" ])));
    tc "containment of many-branch patterns terminates quickly" (fun () ->
        let g = Pat.of_string "//a//b//c//d//e" in
        let s = Pat.of_string "/a/x/b/y/c/z/d/w/e" in
        let covers, elapsed =
          Xia_obs.Trace.timed "test.pattern_containment" (fun () ->
              Pat.covers ~general:g ~specific:s)
        in
        Alcotest.(check bool) "covers" true covers;
        Alcotest.(check bool) "fast" true (elapsed < 1.0));
    tc "generalization of long dissimilar patterns terminates" (fun () ->
        let a = Pat.of_string "/a/b/c/d/e/f/g/h" in
        let b = Pat.of_string "/a/h/g/f/e/d/c/b" in
        let results, elapsed =
          Xia_obs.Trace.timed "test.generalize_pair" (fun () ->
              Xia_advisor.Generalize.pair a b)
        in
        Alcotest.(check bool) "nonempty" true (results <> []);
        Alcotest.(check bool) "fast" true (elapsed < 1.0);
        List.iter
          (fun g ->
            Alcotest.(check bool) "covers both" true
              (Pat.covers ~general:g ~specific:a && Pat.covers ~general:g ~specific:b))
          results);
  ]

(* Deterministic regressions of the algorithm orderings the paper reports,
   on the shared tiny TPoX fixture. *)
let ordering_tests =
  [
    tc "heuristics never below plain greedy at the all-index budget" (fun () ->
        let catalog = Lazy.force Helpers.shared_catalog in
        let session = A.create_session catalog (Xia_workload.Tpox.workload ()) in
        let all = A.session_advise session ~budget:max_int A.All_index in
        let budget = all.A.outcome.S.size in
        let g = A.session_advise session ~budget A.Greedy in
        let h = A.session_advise session ~budget A.Greedy_heuristics in
        Alcotest.(check bool) "h >= g" true (h.A.est_speedup >= g.A.est_speedup -. 1e-9));
    tc "all-index dominates every algorithm at every budget" (fun () ->
        let catalog = Lazy.force Helpers.shared_catalog in
        let session = A.create_session catalog (Xia_workload.Tpox.workload ()) in
        let all = A.session_advise session ~budget:max_int A.All_index in
        List.iter
          (fun frac ->
            let budget =
              int_of_float (frac *. float_of_int all.A.outcome.S.size)
            in
            List.iter
              (fun alg ->
                let r = A.session_advise session ~budget alg in
                Alcotest.(check bool)
                  (Printf.sprintf "%s@%.2f" (A.algorithm_name alg) frac)
                  true
                  (r.A.est_speedup <= all.A.est_speedup +. 1e-9))
              A.all_algorithms)
          [ 0.5; 1.0; 2.0 ]);
    tc "top-down full at least matches top-down lite" (fun () ->
        let catalog = Lazy.force Helpers.shared_catalog in
        let session = A.create_session catalog (Xia_workload.Tpox.workload ()) in
        let all = A.session_advise session ~budget:max_int A.All_index in
        let budget = all.A.outcome.S.size * 3 / 2 in
        let lite = A.session_advise session ~budget A.Top_down_lite in
        let full = A.session_advise session ~budget A.Top_down_full in
        Alcotest.(check bool) "full >= lite - eps" true
          (full.A.est_speedup >= lite.A.est_speedup -. 0.10));
  ]

let suites =
  [
    ("adversarial.deep", deep_tests);
    ("adversarial.patterns", pattern_tests);
    ("adversarial.ordering", ordering_tests);
  ]
