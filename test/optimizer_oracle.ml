(* The planner Xia_optimizer.Optimizer used before statements were
   prepared, kept as the differential oracle for prepared planning.

   Every statement is rewritten and every cost derived from scratch on
   each call: per table, the visible indexes with their derived statistics
   ([table_env]); per binding, the document scan, then every matching index
   with its lookup estimate recomputed.  Slow, and each rule is written
   out once.  It counts the plans it considers in [plans_considered], at
   the same points the optimizer counts [counters.plans_considered]. *)

module Plan = Xia_optimizer.Plan
module Selectivity = Xia_optimizer.Selectivity
module Catalog = Xia_index.Catalog
module Index_def = Xia_index.Index_def
module Index_stats = Xia_index.Index_stats
module Doc_store = Xia_storage.Doc_store
module Path_stats = Xia_storage.Path_stats
module C = Xia_storage.Cost_params
module Rewriter = Xia_query.Rewriter
module Ast = Xia_query.Ast
module Pattern = Xia_xpath.Pattern

let plans_considered = ref 0

(* Which indexes a plan may use: the catalog's materialized ones
   ([Optimizer.optimize]) or a virtual configuration (what-if). *)
type mode =
  | Normal
  | Evaluate

let visible_indexes ~virtual_config catalog mode table =
  match mode with
  | Normal ->
      List.map
        (fun pi -> (Xia_index.Physical_index.def pi, false))
        (Catalog.real_indexes catalog table)
  | Evaluate ->
      List.filter_map
        (fun (d : Index_def.t) -> if String.equal d.table table then Some (d, true) else None)
        virtual_config

let index_matches (def : Index_def.t) (access : Rewriter.access) =
  String.equal def.table access.table
  && Index_def.equal_data_type def.dtype access.dtype
  && Pattern.covers ~general:def.pattern ~specific:access.pattern

(* Can [def] serve some access of the statement's bindings?  The test the
   what-if pre-passes once made per (statement, candidate) pair. *)
let serves (stmt : Ast.statement) def =
  List.exists
    (fun (info : Rewriter.binding_info) -> List.exists (List.exists (index_matches def)) info.filters)
    (Rewriter.bindings_of_statement stmt)

let avg_doc_pages (tstats : Path_stats.t) =
  if tstats.doc_count = 0 then 1.0
  else
    Float.max 1.0
      (float_of_int tstats.total_bytes
      /. float_of_int tstats.doc_count /. float_of_int C.page_size)

let avg_doc_elements (tstats : Path_stats.t) =
  if tstats.doc_count = 0 then 0.0
  else float_of_int tstats.total_elements /. float_of_int tstats.doc_count

let verify_cost_per_doc tstats nfilters =
  (avg_doc_elements tstats *. C.cpu_per_node)
  +. (float_of_int (nfilters + 1) *. C.cpu_per_predicate)

let predicate_count (info : Rewriter.binding_info) =
  List.length (List.concat info.filters)

let doc_scan_cost tstats store (info : Rewriter.binding_info) =
  let docs = float_of_int tstats.Path_stats.doc_count in
  let pages = float_of_int (Doc_store.pages store) in
  (pages *. C.sequential_page_cost)
  +. (docs *. verify_cost_per_doc tstats (predicate_count info))

let index_scan_parts tstats (choice : Plan.index_choice) =
  let s = choice.stats in
  let entries = float_of_int s.Index_stats.entries in
  let est =
    Selectivity.lookup_estimate
      ~query:(Pattern.id choice.access.Rewriter.pattern)
      tstats choice.def.Index_def.pid choice.def.Index_def.dtype
      choice.access.condition
  in
  let entries_scanned = est.Selectivity.entries_matched in
  let leaf_frac = if entries = 0.0 then 0.0 else entries_scanned /. entries in
  let descend = float_of_int s.Index_stats.levels *. C.effective_random_page_cost in
  let leaf_io =
    float_of_int s.Index_stats.leaf_pages *. leaf_frac *. C.sequential_page_cost
  in
  let entry_cpu = entries_scanned *. C.cpu_per_index_entry in
  let docs_fetched = est.Selectivity.docs_matched in
  let lookup = descend +. leaf_io +. entry_cpu in
  ( lookup,
    docs_fetched,
    Float.min 1.0
      (docs_fetched /. Float.max 1.0 (float_of_int tstats.Path_stats.doc_count)) )

let fetch_and_verify_cost tstats nfilters docs =
  docs
  *. ((C.effective_random_page_cost *. avg_doc_pages tstats)
     +. verify_cost_per_doc tstats nfilters)

(* Every index plan's cost is scaled by the perturbation [factor]. *)
let index_scan_cost ~factor tstats (info : Rewriter.binding_info) choice =
  let nfilters = predicate_count info in
  let lookup, docs_fetched, _frac = index_scan_parts tstats choice in
  (lookup +. fetch_and_verify_cost tstats nfilters docs_fetched) *. factor

let index_or_cost ~factor tstats (info : Rewriter.binding_info) choices =
  let nfilters = predicate_count info in
  let docs_cap = Float.max 1.0 (float_of_int tstats.Path_stats.doc_count) in
  let lookups, docs_union =
    List.fold_left
      (fun (lk, du) choice ->
        let lookup, docs_fetched, _ = index_scan_parts tstats choice in
        (lk +. lookup, du +. docs_fetched))
      (0.0, 0.0) choices
  in
  let docs_union = Float.min docs_cap docs_union in
  (lookups +. fetch_and_verify_cost tstats nfilters docs_union) *. factor

let index_and_cost ~factor tstats (info : Rewriter.binding_info) choices =
  let nfilters = predicate_count info in
  let docs = Float.max 1.0 (float_of_int tstats.Path_stats.doc_count) in
  let lookups, rid_cpu, inter_frac =
    List.fold_left
      (fun (lk, rc, fr) choice ->
        let lookup, docs_fetched, frac = index_scan_parts tstats choice in
        (lk +. lookup, rc +. (docs_fetched *. C.cpu_per_index_entry), fr *. frac))
      (0.0, 0.0, 1.0) choices
  in
  let inter_docs = docs *. inter_frac in
  (lookups +. rid_cpu +. fetch_and_verify_cost tstats nfilters inter_docs) *. factor

let est_result_docs tstats (info : Rewriter.binding_info) =
  float_of_int tstats.Path_stats.doc_count
  *. Selectivity.combined_doc_fraction tstats info.filters

type table_env = {
  tstats : Path_stats.t;
  store : Doc_store.t;
  indexes : (Index_def.t * bool * Index_stats.t) list;
}

let table_env ~virtual_config catalog mode table =
  let tstats = Catalog.stats catalog table in
  {
    tstats;
    store = Catalog.store catalog table;
    indexes =
      List.map
        (fun (def, is_virtual) ->
          (def, is_virtual, Index_stats.derive_cached tstats def))
        (visible_indexes ~virtual_config catalog mode table);
  }

let plan_binding ~factor env (info : Rewriter.binding_info) =
  let tstats = env.tstats in
  let est_docs = est_result_docs tstats info in
  let result_cpu = est_docs *. C.cpu_per_result in
  let scan_cost = doc_scan_cost tstats env.store info +. result_cpu in
  incr plans_considered;
  let best_choice_for (access : Rewriter.access) =
    let applicable =
      List.filter_map
        (fun (def, is_virtual, stats) ->
          if index_matches def access then
            if stats.Index_stats.entries = 0 then None
            else Some { Plan.def; stats; access; is_virtual }
          else None)
        env.indexes
    in
    List.fold_left
      (fun acc c ->
        let cost = index_scan_cost ~factor tstats info c in
        incr plans_considered;
        match acc with
        | Some (_, best_cost) when best_cost <= cost -> acc
        | Some _ | None -> Some (c, cost))
      None applicable
  in
  let filter_plans =
    List.filter_map
      (fun (filter : Rewriter.filter) ->
        match filter with
        | [] -> None
        | [ access ] ->
            Option.map (fun (c, cost) -> (Plan.Index_scan c, cost)) (best_choice_for access)
        | disjuncts ->
            let choices = List.map best_choice_for disjuncts in
            if List.for_all Option.is_some choices then begin
              let choices = List.map (fun o -> fst (Option.get o)) choices in
              incr plans_considered;
              Some (Plan.Index_or choices, index_or_cost ~factor tstats info choices)
            end
            else None)
      info.filters
  in
  let single_plans =
    List.map (fun (p, cost) -> (p, cost +. result_cpu)) filter_plans
  in
  let scan_winners =
    List.filter_map
      (fun (p, _) -> match p with Plan.Index_scan c -> Some c | _ -> None)
      filter_plans
  in
  let rec pairs = function
    | [] -> []
    | c :: rest -> List.map (fun c' -> (c, c')) rest @ pairs rest
  in
  let and_plans =
    List.map
      (fun (c, c') ->
        incr plans_considered;
        let cost = index_and_cost ~factor tstats info [ c; c' ] +. result_cpu in
        (Plan.Index_and [ c; c' ], cost))
      (pairs scan_winners)
  in
  let all_plans = ((Plan.Doc_scan, scan_cost) :: single_plans) @ and_plans in
  let plan, est_cost =
    List.fold_left
      (fun (bp, bc) (p, c) -> if c < bc then (p, c) else (bp, bc))
      (List.hd all_plans) (List.tl all_plans)
  in
  { Plan.info; plan; est_cost; est_docs }

let insert_cost doc =
  let bytes = float_of_int (Xia_xml.Types.byte_size doc) in
  let pages = Float.max 1.0 (bytes /. float_of_int C.page_size) in
  (pages *. C.sequential_page_cost)
  +. (float_of_int (Xia_xml.Types.count_elements doc) *. C.cpu_per_node)

let modify_cost_per_doc tstats ~factor =
  (avg_doc_pages tstats *. C.sequential_page_cost *. factor)
  +. (avg_doc_elements tstats *. C.cpu_per_node)

(* Documents a DML statement modifies: the most selective locating
   binding's estimate, [0.] with none.  Every binding constrains the same
   documents, so several bindings touch at most the smallest estimate. *)
let affected_docs_of_bindings = function
  | [] -> 0.0
  | planned ->
      List.fold_left (fun acc (b : Plan.planned_binding) -> Float.min acc b.Plan.est_docs) infinity
        planned

let plan_statement ~factor ~env_of (stmt : Ast.statement) =
  let bindings = Rewriter.bindings_of_statement stmt in
  let planned =
    List.map
      (fun (info : Rewriter.binding_info) ->
        plan_binding ~factor (env_of info.Rewriter.source.Ast.table) info)
      bindings
  in
  let locate_cost = List.fold_left (fun acc b -> acc +. b.Plan.est_cost) 0.0 planned in
  let plan total_cost = { Plan.statement = stmt; bindings = planned; total_cost } in
  match stmt with
  | Ast.Select _ -> (plan locate_cost, 0.0)
  | Ast.Insert { table = _; document } -> (plan (insert_cost document), 1.0)
  | Ast.Delete { table; _ } ->
      let tstats = (env_of table).tstats in
      let affected = affected_docs_of_bindings planned in
      (plan (locate_cost +. (affected *. modify_cost_per_doc tstats ~factor:1.0)), affected)
  | Ast.Update { table; _ } ->
      let tstats = (env_of table).tstats in
      let affected = affected_docs_of_bindings planned in
      (plan (locate_cost +. (affected *. modify_cost_per_doc tstats ~factor:2.0)), affected)

(* The old [optimize]: one statement, environments built on demand, index
   plans scaled by [index_cost_factor] (default 1.0).  Returns the plan and
   the documents a DML statement modifies. *)
let optimize ?(mode = Evaluate) ?(index_cost_factor = 1.0) ~virtual_config catalog stmt =
  plan_statement stmt ~factor:index_cost_factor ~env_of:(fun table ->
      table_env ~virtual_config catalog mode table)
