(* Quickstart: load a small XML table, run the advisor on the paper's two
   running-example queries, and inspect what the optimizer does with the
   recommendation.

     dune exec examples/quickstart.exe *)

module Catalog = Xia_index.Catalog
module Doc_store = Xia_storage.Doc_store
module Advisor = Xia_advisor.Advisor
module Optimizer = Xia_optimizer.Optimizer

let () =
  (* 1. Create a catalog with one table of Security documents. *)
  let catalog = Catalog.create () in
  let store = Doc_store.create "SECURITY" in
  let rng = Random.State.make [| 2024 |] in
  for i = 0 to 1999 do
    ignore (Doc_store.insert store (Xia_workload.Tpox.security rng i))
  done;
  Catalog.add_table catalog store;
  Catalog.runstats_all catalog;
  Format.printf "Loaded %d documents (%d KB, %d distinct paths)@.@."
    (Doc_store.doc_count store)
    (Doc_store.total_bytes store / 1024)
    (Xia_storage.Path_stats.path_count (Catalog.stats catalog "SECURITY"));

  (* 2. The training workload: the paper's Q1 and Q2. *)
  let workload =
    Xia_workload.Workload.of_strings
      [
        {|for $sec in SECURITY('SDOC')/Security where $sec/Symbol = "SYM00042" return $sec|};
        {|for $sec in SECURITY('SDOC')/Security[Yield>4.5]
          where $sec/SecInfo/*/Sector = "Energy"
          return <Security>{$sec/Name}</Security>|};
      ]
  in
  Format.printf "Workload:@.%a@.@." Xia_workload.Workload.pp workload;

  (* 3. What does the optimizer's Enumerate Indexes mode see? *)
  Format.printf "Basic candidates (Enumerate Indexes mode):@.";
  List.iter
    (fun (item : Xia_workload.Workload.item) ->
      List.iter
        (fun (table, pattern, dtype) ->
          Format.printf "  %s: %s on %s AS %s@." item.label
            (Xia_xpath.Pattern.to_string pattern)
            table
            (Xia_index.Index_def.data_type_to_string dtype))
        (Optimizer.enumerate_indexes item.statement))
    workload;
  Format.printf "@.";

  (* 4. Ask the advisor for a configuration within 1 MB of disk. *)
  let budget = 1024 * 1024 in
  let r = Advisor.advise catalog workload ~budget Advisor.Greedy_heuristics in
  Format.printf "Recommendation (budget %d KB):@.%a@." (budget / 1024)
    Advisor.pp_recommendation r;

  (* 5. Materialize the recommendation and compare actual execution. *)
  let wall0, cost0, _ = Advisor.execute_workload catalog workload [] in
  let wall1, cost1, _ = Advisor.execute_workload catalog workload (Advisor.indexes r) in
  Format.printf
    "Estimated speedup: %.1fx@.Actual speedup:    %.1fx (work), %.1fx (wall: %.4fs -> %.4fs)@."
    r.Advisor.est_speedup (cost0 /. cost1)
    (if wall1 > 0.0 then wall0 /. wall1 else Float.nan)
    wall0 wall1
