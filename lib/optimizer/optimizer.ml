(* The cost-based query optimizer.

   Besides its normal duty (choosing plans over real indexes), it implements
   the two advisor modes the paper adds to DB2:

   - Enumerate Indexes: optimize the statement with a virtual universal index
     ("//*", and "//@*" for attributes) in place and report every query
     pattern the index-matching step matched against it;
   - Evaluate Indexes: cost the statement against the catalog's current
     virtual-index configuration.

   All index statistics — virtual or real — are derived from data statistics,
   so estimated costs are consistent across modes. *)

module Catalog = Xia_index.Catalog
module Index_def = Xia_index.Index_def
module Index_stats = Xia_index.Index_stats
module Doc_store = Xia_storage.Doc_store
module Path_stats = Xia_storage.Path_stats
module C = Xia_storage.Cost_params
module Rewriter = Xia_query.Rewriter
module Ast = Xia_query.Ast
module Pattern = Xia_xpath.Pattern
module Par = Xia_par.Par

type mode =
  | Normal    (* real indexes *)
  | Evaluate  (* virtual indexes: the advisor's Evaluate Indexes mode *)

(* Counters are atomic: the advisor's parallel what-if evaluator optimizes
   statements from several domains at once. *)
type counters = {
  optimize_calls : int Atomic.t;
  enumerate_calls : int Atomic.t;
  plans_considered : int Atomic.t;
  batched_calls : int Atomic.t;
  batch_setup_saved : int Atomic.t;
}

let counters =
  { optimize_calls = Atomic.make 0; enumerate_calls = Atomic.make 0;
    plans_considered = Atomic.make 0; batched_calls = Atomic.make 0;
    batch_setup_saved = Atomic.make 0 }

let reset_counters () =
  Atomic.set counters.optimize_calls 0;
  Atomic.set counters.enumerate_calls 0;
  Atomic.set counters.plans_considered 0;
  Atomic.set counters.batched_calls 0;
  Atomic.set counters.batch_setup_saved 0

(* Indexes visible to the optimizer in the given mode.  In [Evaluate] mode
   the virtual configuration is normally passed explicitly ([virtual_config]),
   which is reentrant: no catalog state is touched, so any number of
   evaluations can run concurrently.  Without it we fall back to the
   catalog's legacy mutable virtual-index configuration. *)
let visible_indexes ?virtual_config catalog mode table =
  match mode with
  | Normal ->
      List.map
        (fun pi -> (Xia_index.Physical_index.def pi, false))
        (Catalog.real_indexes catalog table)
  | Evaluate ->
      let defs =
        match virtual_config with
        | Some defs ->
            List.filter (fun (d : Index_def.t) -> String.equal d.table table) defs
        | None -> Catalog.virtual_indexes catalog table
      in
      List.map (fun d -> (d, true)) defs

(* Cost-model perturbation knob for the recommendation-quality evaluation
   harness (lib/eval): every index-plan cost (single scan, index OR, index
   AND) is multiplied by this factor before it competes with the document
   scan.  At the default 1.0 the multiplication is a bitwise no-op
   (IEEE-754: x *. 1.0 = x for every finite x), so plans, costs and every
   committed fixture are unaffected; a large factor makes index plans lose
   every cost comparison, which collapses recommendations to the empty
   configuration — the deliberate quality regression the eval ratchet
   (tools/ratchet.ml) must catch.  Atomic for D001; read on the what-if path, written only by
   the eval CLI before any evaluator exists. *)
let index_cost_factor = Atomic.make 1.0

let perturbed cost = cost *. Atomic.get index_cost_factor

(* Index matching: can this index serve this access?  Same table, same data
   type, and the index pattern covers the access pattern. *)
let index_matches (def : Index_def.t) (access : Rewriter.access) =
  String.equal def.table access.table
  && Index_def.equal_data_type def.dtype access.dtype
  && Pattern.covers ~general:def.pattern ~specific:access.pattern

let avg_doc_pages (tstats : Path_stats.t) =
  if tstats.doc_count = 0 then 1.0
  else
    Float.max 1.0
      (float_of_int tstats.total_bytes
      /. float_of_int tstats.doc_count /. float_of_int C.page_size)

let avg_doc_elements (tstats : Path_stats.t) =
  if tstats.doc_count = 0 then 0.0
  else float_of_int tstats.total_elements /. float_of_int tstats.doc_count

(* Cost of verifying one fetched document against the full binding. *)
let verify_cost_per_doc tstats nfilters =
  (avg_doc_elements tstats *. C.cpu_per_node)
  +. (float_of_int (nfilters + 1) *. C.cpu_per_predicate)

(* Number of elementary predicate evaluations per document. *)
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
    Selectivity.lookup_estimate ~query:choice.access.Rewriter.pattern tstats
      choice.def.Index_def.pattern choice.def.Index_def.dtype
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
  (lookup, docs_fetched, Float.min 1.0 (docs_fetched /. Float.max 1.0 (float_of_int tstats.Path_stats.doc_count)))

let fetch_and_verify_cost tstats nfilters docs =
  docs
  *. ((C.effective_random_page_cost *. avg_doc_pages tstats)
     +. verify_cost_per_doc tstats nfilters)

let index_scan_cost tstats (info : Rewriter.binding_info) choice =
  let nfilters = predicate_count info in
  let lookup, docs_fetched, _frac = index_scan_parts tstats choice in
  perturbed (lookup +. fetch_and_verify_cost tstats nfilters docs_fetched)

(* OR filter served by one index per disjunct: union of the probes. *)
let index_or_cost tstats (info : Rewriter.binding_info) choices =
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
  perturbed (lookups +. fetch_and_verify_cost tstats nfilters docs_union)

let index_and_cost tstats (info : Rewriter.binding_info) choices =
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
  perturbed (lookups +. rid_cpu +. fetch_and_verify_cost tstats nfilters inter_docs)

(* Result-size estimate, independent of the access path. *)
let est_result_docs tstats (info : Rewriter.binding_info) =
  float_of_int tstats.Path_stats.doc_count
  *. Selectivity.combined_doc_fraction tstats info.filters

(* Everything the planner reads about one table, assembled once and shared by
   every statement planned against the same (virtual) configuration: data
   statistics, the store handle, and the visible indexes with their derived
   statistics.  [Index_stats.derive_cached] is pure and memoized, so forcing
   it eagerly here changes no number — it only moves the derivation out of
   the per-statement loop, and leaves the environment read-only (safe to
   share across domains; no [Lazy.t] crosses a domain boundary). *)
type table_env = {
  tstats : Path_stats.t;
  store : Doc_store.t;
  indexes : (Index_def.t * bool * Index_stats.t) list;
      (* visible defs in [visible_indexes] order — preserved exactly, because
         [best_choice_for] keeps the first index on an exact cost tie *)
}

let table_env ?virtual_config catalog mode table =
  let tstats = Catalog.stats catalog table in
  {
    tstats;
    store = Catalog.store catalog table;
    indexes =
      List.map
        (fun (def, is_virtual) ->
          (def, is_virtual, Index_stats.derive_cached tstats def))
        (visible_indexes ?virtual_config catalog mode table);
  }

let plan_binding env (info : Rewriter.binding_info) =
  let tstats = env.tstats in
  let est_docs = est_result_docs tstats info in
  let result_cpu = est_docs *. C.cpu_per_result in
  let scan_cost = doc_scan_cost tstats env.store info +. result_cpu in
  Atomic.incr counters.plans_considered;
  (* Best matching index per access. *)
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
        let cost = index_scan_cost tstats info c in
        Atomic.incr counters.plans_considered;
        match acc with
        | Some (_, best_cost) when best_cost <= cost -> acc
        | Some _ | None -> Some (c, cost))
      None applicable
  in
  (* Per filter: a single index scan for a plain predicate, an index OR (one
     index per disjunct, all required) for a disjunctive one. *)
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
              Atomic.incr counters.plans_considered;
              Some (Plan.Index_or choices, index_or_cost tstats info choices)
            end
            else None)
      info.filters
  in
  let single_plans =
    List.map (fun (p, cost) -> (p, cost +. result_cpu)) filter_plans
  in
  (* AND-combinations of the single-scan winners (pairs). *)
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
        Atomic.incr counters.plans_considered;
        let cost = index_and_cost tstats info [ c; c' ] +. result_cpu in
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

(* Pure in the document: page-in plus parse CPU.  (An earlier version
   pulled [Catalog.stats] here and ignored it — a shared-state read the
   E002 effect check rightly flagged on the batched what-if path.) *)
let insert_cost doc =
  let bytes = float_of_int (Xia_xml.Types.byte_size doc) in
  let pages = Float.max 1.0 (bytes /. float_of_int C.page_size) in
  (pages *. C.sequential_page_cost)
  +. (float_of_int (Xia_xml.Types.count_elements doc) *. C.cpu_per_node)

let modify_cost_per_doc tstats ~factor =
  (avg_doc_pages tstats *. C.sequential_page_cost *. factor)
  +. (avg_doc_elements tstats *. C.cpu_per_node)

(* Every what-if call's latency, for the advisor's observability layer.
   Looked up by name at each instrumented call, so the metric only
   registers once one runs. *)
let optimize_latency () = Xia_obs.Metrics.histogram "optimizer.optimize_latency_us"

(* Documents a DML statement modifies, from its locating binding(s).  Every
   binding constrains the same documents, so with several the statement
   touches at most the most selective one's estimate: fold with [min].  (A
   previous version matched [ [ b ] -> b.est_docs | _ -> 0.0 ], silently
   zeroing the modification cost of any multi-binding statement.) *)
let affected_docs_of_bindings = function
  | [] -> 0.0
  | planned ->
      List.fold_left
        (fun acc (b : Plan.planned_binding) -> Float.min acc b.Plan.est_docs)
        infinity planned

(* Plan one statement against prebuilt table environments ([env_of] must
   cover every table the statement touches).  Shared by the per-statement
   and batched entry points — counters are incremented by the callers. *)
let plan_statement ~env_of (stmt : Ast.statement) =
  let bindings = Rewriter.bindings_of_statement stmt in
  let planned =
    List.map
      (fun (info : Rewriter.binding_info) ->
        plan_binding (env_of info.Rewriter.source.Ast.table) info)
      bindings
  in
  let locate_cost = List.fold_left (fun acc b -> acc +. b.Plan.est_cost) 0.0 planned in
  match stmt with
  | Ast.Select _ ->
      { Plan.statement = stmt; bindings = planned; total_cost = locate_cost; affected_docs = 0.0 }
  | Ast.Insert { table = _; document } ->
      let cost = insert_cost document in
      { Plan.statement = stmt; bindings = planned; total_cost = cost; affected_docs = 1.0 }
  | Ast.Delete { table; _ } ->
      let tstats = (env_of table).tstats in
      let affected = affected_docs_of_bindings planned in
      let cost = locate_cost +. (affected *. modify_cost_per_doc tstats ~factor:1.0) in
      { Plan.statement = stmt; bindings = planned; total_cost = cost; affected_docs = affected }
  | Ast.Update { table; _ } ->
      let tstats = (env_of table).tstats in
      let affected = affected_docs_of_bindings planned in
      let cost = locate_cost +. (affected *. modify_cost_per_doc tstats ~factor:2.0) in
      { Plan.statement = stmt; bindings = planned; total_cost = cost; affected_docs = affected }

let do_optimize ?(mode = Evaluate) ?virtual_config catalog (stmt : Ast.statement) =
  Atomic.incr counters.optimize_calls;
  plan_statement stmt
    ~env_of:(fun table -> table_env ?virtual_config catalog mode table)

let optimize ?mode ?virtual_config catalog stmt =
  if not (Xia_obs.Obs.on ()) then do_optimize ?mode ?virtual_config catalog stmt
  else begin
    let t0 = Xia_obs.Obs.now_s () in
    let plan = do_optimize ?mode ?virtual_config catalog stmt in
    Xia_obs.Metrics.observe_s (optimize_latency ())
      (Xia_obs.Obs.now_s () -. t0);
    plan
  end

(* Distribution of batch sizes, for the observability layer.  Unitless
   bounds: a sample is a statement count, not a latency. *)
let batch_size_hist () =
  Xia_obs.Metrics.histogram
    ~bounds_us:[| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512.; 1024. |]
    "optimizer.batch_size"

(* The batched what-if entry point (Section VI-C).  One virtual-config
   setup per call: statistics warming and the per-table planning
   environments are built once, then every statement is planned against the
   shared context — fanned out over up to [domains] domains, positionally
   deterministic.  Plans are bit-for-bit what per-statement [optimize] calls
   would return: the environment precomputes exactly what per-statement
   planning derives on the fly (same defs, same order, same memoized index
   statistics), so no cost or tie-break can differ. *)
let optimize_batch ?(mode = Evaluate) ?(domains = 1) ~virtual_config catalog
    (stmts : Ast.statement array) =
  let n = Array.length stmts in
  if n = 0 then [||]
  else begin
    Atomic.incr counters.optimize_calls;
    Atomic.incr counters.batched_calls;
    ignore (Atomic.fetch_and_add counters.batch_setup_saved (n - 1));
    let run () =
      (* Force lazy statistics collection up front: afterwards the parallel
         planners only read the catalog. *)
      Catalog.warm_stats catalog;
      let tables =
        List.sort_uniq String.compare
          (Array.fold_left (fun acc s -> List.rev_append (Ast.tables s) acc) [] stmts)
      in
      let envs =
        List.map (fun t -> (t, table_env ~virtual_config catalog mode t)) tables
      in
      let env_of table = List.assoc table envs in
      Par.map ~domains (plan_statement ~env_of) stmts
    in
    if not (Xia_obs.Obs.on ()) then run ()
    else
      Xia_obs.Trace.with_span "optimizer.batch"
        ~args:(fun () -> [ ("statements", string_of_int n) ])
        (fun () ->
          Xia_obs.Metrics.observe (batch_size_hist ()) (float_of_int n);
          let t0 = Xia_obs.Obs.now_s () in
          let plans = run () in
          Xia_obs.Metrics.observe_s (optimize_latency ())
            (Xia_obs.Obs.now_s () -. t0);
          plans)
  end

let statement_cost ?mode ?virtual_config catalog stmt =
  (optimize ?mode ?virtual_config catalog stmt).Plan.total_cost

(* The Enumerate Indexes mode.  A universal virtual index (for each data type
   and node kind) is put in place for every table the statement touches; the
   index-matching step then reports every access it matches.  The result is
   the statement's basic candidate patterns. *)
let universal_defs table =
  [
    Index_def.make ~name:("__univ_elem_str_" ^ table) ~table ~pattern:Pattern.universal
      ~dtype:Index_def.Dstring ();
    Index_def.make ~name:("__univ_elem_num_" ^ table) ~table ~pattern:Pattern.universal
      ~dtype:Index_def.Ddouble ();
    Index_def.make ~name:("__univ_attr_str_" ^ table) ~table ~pattern:Pattern.universal_attr
      ~dtype:Index_def.Dstring ();
    Index_def.make ~name:("__univ_attr_num_" ^ table) ~table ~pattern:Pattern.universal_attr
      ~dtype:Index_def.Ddouble ();
  ]

let enumerate_indexes _catalog (stmt : Ast.statement) =
  Atomic.incr counters.enumerate_calls;
  let universals = List.concat_map universal_defs (Ast.tables stmt) in
  let accesses = Rewriter.indexable_accesses stmt in
  let matched =
    List.filter
      (fun access -> List.exists (fun def -> index_matches def access) universals)
      accesses
  in
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun (a : Rewriter.access) ->
      (* Dedup on interned ids; no key string is built. *)
      let key = (Xia_xpath.Interner.label a.table, Pattern.id a.pattern, a.dtype) in
      if Hashtbl.mem seen key then None
      else begin
        Hashtbl.add seen key ();
        Some (a.table, a.pattern, a.dtype)
      end)
    matched
