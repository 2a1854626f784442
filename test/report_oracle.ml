(* The per-statement what-if report and drop review that
   Xia_advisor.Report's prepared batches replaced, kept as the differential
   oracle.

   Every cost is one [Helpers.whatif_plan] call, which rewrites and
   prepares its statement afresh and plans it in a batch of one: 2·N calls for a report over N statements, and a
   drop review of K used indexes plans every statement 2 + 4·K times (the
   with-all cost again, the without-this-index cost, and a whole second
   report per index for its maintenance).  Slow, but each number is
   computed in the most direct way. *)

module Catalog = Xia_index.Catalog
module Index_def = Xia_index.Index_def
module Index_stats = Xia_index.Index_stats
module Maintenance = Xia_index.Maintenance
module Optimizer = Xia_optimizer.Optimizer
module Plan = Xia_optimizer.Plan
module Workload = Xia_workload.Workload
module Report = Xia_advisor.Report

type statement_report = {
  base_cost : float;
  new_cost : float;
  indexes_used : Index_def.t list;
}

type t = {
  statements : statement_report list;
  base_total : float;
  new_total : float;
  maintenance : float;
  unused : Index_def.t list;
}

let evaluate_configuration catalog (workload : Workload.t) defs =
  let base_plans =
    List.map
      (fun (item : Workload.item) ->
        Helpers.whatif_plan catalog item.statement)
      workload
  in
  let new_plans =
    List.map
      (fun (item : Workload.item) ->
        Helpers.whatif_plan ~virtual_config:defs catalog item.statement)
      workload
  in
  let statements =
    List.map2
      (fun base_plan new_plan ->
        {
          base_cost = base_plan.Plan.total_cost;
          new_cost = new_plan.Plan.total_cost;
          indexes_used = Plan.indexes_used new_plan;
        })
      base_plans new_plans
  in
  let weighted f =
    List.fold_left2
      (fun acc (item : Workload.item) r -> acc +. (item.freq *. f r))
      0.0 workload statements
  in
  let maintenance =
    List.fold_left
      (fun acc (item : Workload.item) ->
        match item.statement with
        | Xia_query.Ast.Select _ -> acc
        | Xia_query.Ast.Insert _ | Xia_query.Ast.Delete _ | Xia_query.Ast.Update _ ->
            let tables = Xia_query.Ast.tables item.statement in
            let docs_affected = Optimizer.affected_docs (Optimizer.prepare catalog item.statement) in
            List.fold_left
              (fun acc (d : Index_def.t) ->
                if List.mem d.table tables then
                  let stats = Index_stats.derive_cached (Catalog.stats catalog d.table) d in
                  acc
                  +. item.freq
                     *. Maintenance.cost stats ~docs_affected
                else acc)
              acc defs)
      0.0 workload
  in
  let unused =
    List.filter
      (fun d ->
        not (List.exists (fun r -> List.exists (Index_def.same d) r.indexes_used) statements))
      defs
  in
  {
    statements;
    base_total = weighted (fun r -> r.base_cost);
    new_total = weighted (fun r -> r.new_cost);
    maintenance;
    unused;
  }

(* Each index's own maintenance charge: the total of a report on it alone. *)
let index_maintenance catalog workload defs =
  List.map (fun d -> (d, (evaluate_configuration catalog workload [ d ]).maintenance)) defs

let estimated_workload_cost catalog (workload : Workload.t) defs =
  List.fold_left
    (fun acc (item : Workload.item) ->
      acc
      +. item.freq
         *. (Helpers.whatif_plan ~virtual_config:defs catalog item.statement).Plan.total_cost)
    0.0 workload

let drop_recommendations catalog (workload : Workload.t) =
  let defs =
    List.concat_map
      (fun table ->
        List.map Xia_index.Physical_index.def (Catalog.real_indexes catalog table))
      (Catalog.table_names catalog)
  in
  let report = evaluate_configuration catalog workload defs in
  List.filter_map
    (fun (d : Index_def.t) ->
      if List.exists (Index_def.same d) report.unused then Some (d, Report.Unused)
      else begin
        let without = List.filter (fun x -> not (Index_def.same x d)) defs in
        let with_cost = estimated_workload_cost catalog workload defs in
        let without_cost = estimated_workload_cost catalog workload without in
        let benefit = without_cost -. with_cost in
        let maintenance = (evaluate_configuration catalog workload [ d ]).maintenance in
        if maintenance > benefit then
          Some (d, Report.Maintenance_exceeds_benefit { benefit; maintenance })
        else None
      end)
    defs
