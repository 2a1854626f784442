(* Report's prepared batches against the per-statement oracle they replaced
   ([Report_oracle]): over random index subsets of tiny TPoX, with and
   without DML, every per-statement cost, total, per-index maintenance
   charge, unused list and drop must be equal bit for bit. *)

module R = Xia_advisor.Report
module C = Xia_advisor.Candidate
module En = Xia_advisor.Enumeration
module Cat = Xia_index.Catalog
module D = Xia_index.Index_def

(* Its own catalog: the drop review materializes indexes. *)
let fixture =
  lazy
    (let catalog = Helpers.fresh_tiny_catalog () in
     let mk table p dtype = D.make ~table ~pattern:(Helpers.pattern p) ~dtype () in
     let pool =
       List.map (fun (c : C.t) -> c.C.def)
         (C.to_list
            (En.candidates (Xia_workload.Tpox.workload_with_updates ())))
       @ [
           mk "SECURITY" "/Security/Name" D.Dstring;
           mk "CUSTACC" "/Customer/Name" D.Dstring;
           mk Xia_workload.Tpox.order_table "/FIXML/Order/@ID" D.Dstring;
         ]
     in
     (catalog, Array.of_list pool))

(* More DML, at uneven frequencies, so that three or more statements charge
   an index of each table and the order of a maintenance sum shows in its
   last bits. *)
let extra_dml =
  List.mapi
    (fun i (freq, s) ->
      Xia_workload.Workload.item ~freq (Printf.sprintf "X%d" (i + 1))
        (Xia_query.Parser.parse_statement_exn s))
    [
      (0.7, {|delete from SECURITY where /Security[Yield>4.5]|});
      (3.1, {|update SECURITY set /Security/Yield = "1.5" where /Security[Symbol="SYM00007"]|});
      (0.3, {|update CUSTACC set /Customer/Tier = "Gold" where /Customer[Nationality="Norway"]|});
      (1.9, {|delete from CUSTACC where /Customer[@id=1043]|});
      (2.3, {|delete from XORDER where /FIXML/Order[@Acct="ACCT000770"]|});
    ]

let names defs = List.map D.name defs

let same_reason a b =
  match a, b with
  | R.Unused, R.Unused -> true
  | ( R.Maintenance_exceeds_benefit { benefit = b1; maintenance = m1 },
      R.Maintenance_exceeds_benefit { benefit = b2; maintenance = m2 } ) ->
      Float.equal b1 b2 && Float.equal m1 m2
  | _ -> false

let same_drops a b =
  List.equal (fun (d1, r1) (d2, r2) -> D.same d1 d2 && same_reason r1 r2) a b

let qcheck_oracle =
  QCheck.Test.make ~count:40 ~name:"report and drop review = per-statement oracle"
    QCheck.(
      make ~print:Print.(triple int int int)
        Gen.(triple (int_bound 3) (int_range 0 100_000) (int_bound 7)))
    (fun (updates, seed, k) ->
      let catalog, pool = Lazy.force fixture in
      let workload =
        match updates with
        | 0 -> Xia_workload.Tpox.workload ()
        | u ->
            Xia_workload.Tpox.workload_with_updates
              ~update_freq:(List.nth [ 1.0; 100.0; 1000.0 ] (u - 1)) ()
            @ extra_dml
      in
      let rng = Random.State.make [| seed |] in
      let defs =
        List.fold_left
          (fun acc d -> if List.exists (D.same d) acc then acc else acc @ [ d ])
          []
          (List.init k (fun _ -> pool.(Random.State.int rng (Array.length pool))))
      in
      let r = R.evaluate_configuration catalog workload defs in
      let o = Report_oracle.evaluate_configuration catalog workload defs in
      let statements_equal =
        List.for_all2
          (fun (s : R.statement_report) (os : Report_oracle.statement_report) ->
            Float.equal s.R.base_cost os.Report_oracle.base_cost
            && Float.equal s.R.new_cost os.Report_oracle.new_cost
            && names s.R.indexes_used = names os.Report_oracle.indexes_used)
          r.R.statements o.Report_oracle.statements
      in
      let maintenance_equal =
        List.equal
          (fun (d1, m1) (d2, m2) -> D.same d1 d2 && Float.equal m1 m2)
          r.R.index_maintenance
          (Report_oracle.index_maintenance catalog workload defs)
      in
      let drops, oracle_drops =
        Fun.protect
          ~finally:(fun () -> Cat.drop_all_indexes catalog)
          (fun () ->
            List.iter (fun d -> ignore (Cat.create_index catalog d)) defs;
            ( R.drop_recommendations catalog workload,
              Report_oracle.drop_recommendations catalog workload ))
      in
      statements_equal
      && Float.equal r.R.base_total o.Report_oracle.base_total
      && Float.equal r.R.new_total o.Report_oracle.new_total
      && Float.equal r.R.maintenance o.Report_oracle.maintenance
      && maintenance_equal
      && names r.R.unused = names o.Report_oracle.unused
      && same_drops drops oracle_drops)

let suites = [ Helpers.qsuite "report.oracle" [ qcheck_oracle ] ]
