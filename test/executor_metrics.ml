(* Executor work counts for the tiny TPoX workload, for the byte-locked
   fixture examples/executor_metrics.expected.

   Each of the 11 queries and 4 DML statements runs in order, once on a
   catalog without indexes and once on a catalog with every enumerated
   candidate index materialized.  Each run prints the row count, the three
   document/entry counters and the simulated cost in hexadecimal ([%h]), so
   any change to what the executor visits or to the order in which it sums
   its float charges changes the output.

   Usage: executor_metrics *)

module Catalog = Xia_index.Catalog
module Executor = Xia_optimizer.Executor
module Workload = Xia_workload.Workload
module Tpox = Xia_workload.Tpox

let fresh () =
  let catalog = Catalog.create () in
  Tpox.load ~scale:Tpox.tiny_scale ~seed:7 catalog;
  catalog

let run label workload catalog =
  List.iter
    (fun (item : Workload.item) ->
      let r = Executor.run_statement catalog item.Workload.statement in
      let m = r.Executor.metrics in
      Printf.printf "%s %s rows=%d scanned=%d fetched=%d entries=%d cost=%h\n" label
        item.Workload.label r.Executor.rows m.Executor.docs_scanned m.Executor.docs_fetched
        m.Executor.index_entries m.Executor.simulated_cost)
    workload

let () =
  let workload = Tpox.workload () @ Tpox.dml () in
  run "none" workload (fresh ());
  let catalog = fresh () in
  let set = Xia_advisor.Enumeration.candidates workload in
  List.iter
    (fun (c : Xia_advisor.Candidate.t) -> ignore (Catalog.create_index catalog c.def))
    (Xia_advisor.Candidate.to_list set);
  Printf.printf "indexes %d\n" (List.length (Xia_advisor.Candidate.to_list set));
  run "all" workload catalog
