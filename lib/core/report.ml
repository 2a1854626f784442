(* What-if analysis: evaluate a user-supplied index configuration over a
   workload through the optimizer's Evaluate Indexes mode, with a
   per-statement breakdown — the advisor-as-a-service counterpart of DB2's
   EVALUATE INDEXES explain mode — and the drop review of a materialized
   configuration built on it.

   Each statement is prepared once; every configuration is then one
   prepared batch over the same statements. *)

module Catalog = Xia_index.Catalog
module Index_def = Xia_index.Index_def
module Index_stats = Xia_index.Index_stats
module Maintenance = Xia_index.Maintenance
module Optimizer = Xia_optimizer.Optimizer
module Plan = Xia_optimizer.Plan
module Workload = Xia_workload.Workload

type statement_report = {
  label : string;
  freq : float;
  base_cost : float;
  new_cost : float;
  speedup : float;
  indexes_used : Index_def.t list;
}

type t = {
  defs : Index_def.t list;
  total_size : int;
  statements : statement_report list;
  base_total : float;              (* frequency-weighted *)
  new_total : float;
  est_speedup : float;
  maintenance : float;             (* total mc charge of the configuration *)
  index_maintenance : (Index_def.t * float) list;  (* each def's own charge *)
  unused : Index_def.t list;       (* defs no statement's plan uses *)
}

let stats catalog (d : Index_def.t) =
  Index_stats.derive_cached (Catalog.stats catalog d.table) d

(* Σ freq · cost over the workload, in workload order. *)
let weighted (workload : Workload.t) costs =
  let total = ref 0.0 in
  List.iteri
    (fun i (item : Workload.item) -> total := !total +. (item.freq *. costs.(i)))
    workload;
  !total

let evaluate_prepared catalog (workload : Workload.t) prepared defs =
  let total_size =
    List.fold_left (fun acc d -> acc + (stats catalog d).Index_stats.size_bytes) 0 defs
  in
  let base_costs = Optimizer.optimize_costs ~virtual_config:[] prepared in
  let new_plans = Optimizer.optimize_prepared ~virtual_config:defs prepared in
  let new_costs = Array.map (fun (p : Plan.t) -> p.Plan.total_cost) new_plans in
  let statements =
    List.mapi
      (fun i (item : Workload.item) ->
        let base_cost = base_costs.(i) and new_cost = new_costs.(i) in
        {
          label = item.label;
          freq = item.freq;
          base_cost;
          new_cost;
          speedup = (if new_cost > 0.0 then base_cost /. new_cost else 1.0);
          indexes_used = Plan.indexes_used new_plans.(i);
        })
      workload
  in
  let base_total = weighted workload base_costs in
  let new_total = weighted workload new_costs in
  (* The DML items in workload order: frequency, tables, affected documents. *)
  let dml =
    List.concat
      (List.mapi
         (fun i (item : Workload.item) ->
           match item.statement with
           | Xia_query.Ast.Select _ -> []
           | Xia_query.Ast.Insert _ | Xia_query.Ast.Delete _ | Xia_query.Ast.Update _ ->
               [ (item.freq, Xia_query.Ast.tables item.statement,
                  Optimizer.affected_docs prepared.(i)) ])
         workload)
  in
  let charge acc (freq, tables, docs_affected) (d : Index_def.t) =
    if List.mem d.table tables then
      acc +. (freq *. Maintenance.cost (stats catalog d) ~docs_affected)
    else acc
  in
  let used d =
    List.exists (fun r -> List.exists (Index_def.same d) r.indexes_used) statements
  in
  {
    defs;
    total_size;
    statements;
    base_total;
    new_total;
    est_speedup = (if new_total > 0.0 then base_total /. new_total else 1.0);
    maintenance =
      List.fold_left
        (fun acc u -> List.fold_left (fun acc d -> charge acc u d) acc defs)
        0.0 dml;
    index_maintenance =
      List.map (fun d -> (d, List.fold_left (fun acc u -> charge acc u d) 0.0 dml)) defs;
    unused = List.filter (fun d -> not (used d)) defs;
  }

let prepare catalog (workload : Workload.t) =
  Array.of_list
    (List.map
       (fun (item : Workload.item) -> Optimizer.prepare catalog item.statement)
       workload)

let evaluate_configuration catalog workload defs =
  evaluate_prepared catalog workload (prepare catalog workload) defs

let pp ppf t =
  Fmt.pf ppf "Configuration: %d indexes, %d KB estimated@."
    (List.length t.defs) (t.total_size / 1024);
  List.iter (fun d -> Fmt.pf ppf "  %a@." Index_def.pp d) t.defs;
  Fmt.pf ppf "@.%-6s %6s %12s %12s %9s  %s@." "stmt" "freq" "base" "with idx" "speedup"
    "indexes used";
  List.iter
    (fun r ->
      Fmt.pf ppf "%-6s %6.1f %12.0f %12.0f %8.2fx  %s@." r.label r.freq r.base_cost
        r.new_cost r.speedup
        (String.concat ", "
           (List.map Index_def.name r.indexes_used)))
    t.statements;
  Fmt.pf ppf "@.workload: base %.0f -> %.0f  (%.2fx), maintenance charge %.0f@."
    t.base_total t.new_total t.est_speedup t.maintenance;
  match t.unused with
  | [] -> ()
  | unused ->
      Fmt.pf ppf "WARNING: %d index(es) unused by every plan:@." (List.length unused);
      List.iter (fun (d : Index_def.t) -> Fmt.pf ppf "  %a@." Index_def.pp d) unused

(* Review the catalog's REAL indexes against a workload: recommend dropping
   any index that no plan uses, or whose maintenance charge under the
   workload exceeds the cost increase its removal would cause. *)
type drop_reason =
  | Unused
  | Maintenance_exceeds_benefit of { benefit : float; maintenance : float }

let pp_drop_reason ppf = function
  | Unused -> Fmt.string ppf "never used by any plan"
  | Maintenance_exceeds_benefit { benefit; maintenance } ->
      Fmt.pf ppf "maintenance %.0f exceeds benefit %.0f" maintenance benefit

let drop_recommendations catalog (workload : Workload.t) =
  let defs =
    List.concat_map
      (fun table ->
        List.map Xia_index.Physical_index.def (Catalog.real_indexes catalog table))
      (Catalog.table_names catalog)
  in
  let prepared = prepare catalog workload in
  let report = evaluate_prepared catalog workload prepared defs in
  List.filter_map
    (fun ((d : Index_def.t), maintenance) ->
      if List.exists (Index_def.same d) report.unused then Some (d, Unused)
      else begin
        (* Net effect of keeping just this index vs dropping it. *)
        let without = List.filter (fun x -> not (Index_def.same x d)) defs in
        let without_cost =
          weighted workload
            (Optimizer.optimize_costs ~virtual_config:without prepared)
        in
        let benefit = without_cost -. report.new_total in
        if maintenance > benefit then
          Some (d, Maintenance_exceeds_benefit { benefit; maintenance })
        else None
      end)
    report.index_maintenance
