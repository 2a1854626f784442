(* Generalization to unseen queries (the paper's Section VII-C story).

   A DBA trains the advisor on the first n queries of a 20-query workload and
   the remaining queries arrive later.  The top-down search recommends
   general indexes - e.g. the pattern "/Security/SecInfo//star" - that keep
   benefiting the unseen queries, while greedy-with-heuristics over-fits the
   training set.

     dune exec examples/evolving_workload.exe *)

module Advisor = Xia_advisor.Advisor
module Report = Xia_advisor.Report
module Catalog = Xia_index.Catalog
module W = Xia_workload.Workload

let () =
  let catalog = Catalog.create () in
  Xia_workload.Tpox.load catalog;
  (* 11 TPoX queries + 9 variation queries for diversity, as in the paper. *)
  let test_workload =
    Xia_workload.Tpox.workload () @ Xia_workload.Tpox.variation_queries ()
  in
  Format.printf "Test workload: %d queries.@.@." (W.size test_workload);

  let session_all = Advisor.create_session catalog test_workload in
  let all = Advisor.session_advise session_all ~budget:max_int Advisor.All_index in
  let budget = 20 * all.Advisor.outcome.Xia_advisor.Search.size in

  Format.printf
    "%5s | %-28s | %-28s | %s@." "train" "top-down lite (sp, G/S)" "heuristics (sp, G/S)"
    "all-index sp";
  Format.printf "%s@." (String.make 92 '-');
  let all_sp = all.Advisor.est_speedup in
  List.iter
    (fun n ->
      let train = W.prefix n test_workload in
      let td = Advisor.advise catalog train ~budget Advisor.Top_down_lite in
      let h = Advisor.advise catalog train ~budget Advisor.Greedy_heuristics in
      let sp r =
        (Report.evaluate_configuration catalog test_workload (Advisor.indexes r))
          .Report.est_speedup
      in
      Format.printf "%5d | %10.2fx  (G:%2d, S:%2d)   | %10.2fx  (G:%2d, S:%2d)   | %10.2fx@."
        n (sp td) td.Advisor.general_count td.Advisor.specific_count (sp h)
        h.Advisor.general_count h.Advisor.specific_count all_sp)
    [ 1; 2; 4; 6; 8; 10; 12; 14; 16; 18; 20 ];

  Format.printf
    "@.The top-down configurations keep their edge on unseen queries because they@.\
     contain general patterns; at train=20 both algorithms see the whole workload@.\
     and the specific configuration wins, as in the paper's Figure 4.@."
