(* What-if analysis: evaluate a user-supplied index configuration over a
   workload through the optimizer's Evaluate Indexes mode, with a
   per-statement breakdown — the advisor-as-a-service counterpart of DB2's
   EVALUATE INDEXES explain mode. *)

module Catalog = Xia_index.Catalog
module Index_def = Xia_index.Index_def
module Index_stats = Xia_index.Index_stats
module Maintenance = Xia_index.Maintenance
module Optimizer = Xia_optimizer.Optimizer
module Plan = Xia_optimizer.Plan
module Workload = Xia_workload.Workload

type statement_report = {
  label : string;
  statement_text : string;
  freq : float;
  base_cost : float;
  new_cost : float;
  speedup : float;
  plan : string;                   (* rendered plan under the configuration *)
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
  unused : Index_def.t list;       (* defs no statement's plan uses *)
}

let evaluate_configuration catalog (workload : Workload.t) defs =
  let total_size =
    List.fold_left
      (fun acc (d : Index_def.t) ->
        acc + (Index_stats.derive_cached (Catalog.stats catalog d.table) d).Index_stats.size_bytes)
      0 defs
  in
  let base_plans =
    List.map
      (fun (item : Workload.item) ->
        Optimizer.optimize ~virtual_config:[] catalog item.statement)
      workload
  in
  let new_plans =
    List.map
      (fun (item : Workload.item) ->
        Optimizer.optimize ~virtual_config:defs catalog item.statement)
      workload
  in
  let statements =
    List.map2
      (fun (item : Workload.item) (base_plan, new_plan) ->
        {
          label = item.label;
          statement_text = Xia_query.Printer.statement_to_string item.statement;
          freq = item.freq;
          base_cost = base_plan.Plan.total_cost;
          new_cost = new_plan.Plan.total_cost;
          speedup =
            (if new_plan.Plan.total_cost > 0.0 then
               base_plan.Plan.total_cost /. new_plan.Plan.total_cost
             else 1.0);
          plan = Fmt.str "%a" Plan.pp new_plan;
          indexes_used = Plan.indexes_used new_plan;
        })
      workload
      (List.combine base_plans new_plans)
  in
  let weighted f =
    List.fold_left2
      (fun acc (item : Workload.item) r -> acc +. (item.freq *. f r))
      0.0 workload statements
  in
  let base_total = weighted (fun r -> r.base_cost) in
  let new_total = weighted (fun r -> r.new_cost) in
  let maintenance =
    List.fold_left2
      (fun acc (item : Workload.item) base_plan ->
        match item.statement with
        | Xia_query.Ast.Select _ -> acc
        | Xia_query.Ast.Insert _ | Xia_query.Ast.Delete _ | Xia_query.Ast.Update _ ->
            let tables = Xia_query.Ast.tables item.statement in
            List.fold_left
              (fun acc (d : Index_def.t) ->
                if List.mem d.table tables then
                  let stats = Index_stats.derive_cached (Catalog.stats catalog d.table) d in
                  acc
                  +. item.freq
                     *. Maintenance.cost stats ~docs_affected:base_plan.Plan.affected_docs
                else acc)
              acc defs)
      0.0 workload base_plans
  in
  let unused =
    List.filter
      (fun d ->
        not (List.exists (fun r -> List.exists (Index_def.same d) r.indexes_used) statements))
      defs
  in
  {
    defs;
    total_size;
    statements;
    base_total;
    new_total;
    est_speedup = (if new_total > 0.0 then base_total /. new_total else 1.0);
    maintenance;
    unused;
  }

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
