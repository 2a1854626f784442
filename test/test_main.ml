(* Test entry point: every suite from every module. *)

let () =
  Random.self_init ();
  Alcotest.run "xia"
    (Test_xml.suites @ Test_xpath.suites @ Test_pattern.suites
   @ Test_storage.suites @ Test_index.suites @ Test_query.suites
   @ Test_optimizer.suites @ Test_executor.suites @ Test_generalize.suites
   @ Test_advisor.suites @ Test_workload.suites @ Test_integration.suites
   @ Test_histogram.suites @ Test_sqlxml.suites @ Test_persist.suites @ Test_fuzz.suites
   @ Test_disjunction.suites @ Test_adversarial.suites
   @ Test_perf.suites @ Test_batch.suites @ Test_lint.suites @ Test_obs.suites
   @ Test_summary.suites @ Test_eval.suites @ Test_prepared.suites @ Test_lookup.suites @ Test_report.suites)
