(* Physical execution of plans.

   Used to measure the paper's "actual speedup": queries really run, either
   by scanning and navigating every document or by probing materialized
   indexes and verifying the fetched documents.  Execution also accumulates a
   simulated cost, priced by the same [Cost_params] charges as the
   optimizer's estimates, giving a hardware-independent view of the work
   done. *)

module Catalog = Xia_index.Catalog
module Physical_index = Xia_index.Physical_index
module Index_def = Xia_index.Index_def
module Doc_store = Xia_storage.Doc_store
module C = Xia_storage.Cost_params
module Ast = Xia_query.Ast
module Rewriter = Xia_query.Rewriter
module Xp = Xia_xpath.Ast
module Eval = Xia_xpath.Eval
module Packed = Xia_xml.Packed

type metrics = {
  mutable docs_scanned : int;
  mutable docs_fetched : int;
  mutable index_entries : int;
  mutable simulated_cost : float;
      (* work actually performed, in cost-model units: I/O for pages touched
         plus CPU for nodes navigated and entries scanned *)
}

let fresh_metrics () =
  { docs_scanned = 0; docs_fetched = 0; index_entries = 0; simulated_cost = 0.0 }

type result = {
  rows : int;
  metrics : metrics;
  wall_seconds : float;
}

let key_of_literal dtype lit =
  match dtype, lit with
  | Index_def.Dstring, Xp.String_lit s -> Some (Physical_index.Kstring s)
  | Index_def.Dstring, Xp.Number_lit f ->
      Some (Physical_index.Kstring (Xia_xpath.Printer.literal_to_string (Xp.Number_lit f)))
  | Index_def.Ddouble, Xp.Number_lit f -> Some (Physical_index.Kdouble f)
  | Index_def.Ddouble, Xp.String_lit s -> (
      match float_of_string_opt s with
      | Some f -> Some (Physical_index.Kdouble f)
      | None -> None)

(* Index entries possibly satisfying the condition (superset: documents are
   verified afterwards). *)
let probe pi (access : Rewriter.access) =
  let dtype = (Physical_index.def pi).Index_def.dtype in
  match access.condition with
  | Rewriter.Cexists -> Physical_index.all pi
  | Rewriter.Ccompare (cmp, lit) -> (
      match key_of_literal dtype lit with
      | None -> Physical_index.all pi
      | Some key -> (
          match cmp with
          | Xp.Eq -> Physical_index.lookup_eq pi key
          | Xp.Ne -> Physical_index.lookup_ne pi key
          | Xp.Lt ->
              Physical_index.lookup_range pi ~lo:Physical_index.Unbounded
                ~hi:(Physical_index.Exclusive key)
          | Xp.Le ->
              Physical_index.lookup_range pi ~lo:Physical_index.Unbounded
                ~hi:(Physical_index.Inclusive key)
          | Xp.Gt ->
              Physical_index.lookup_range pi ~lo:(Physical_index.Exclusive key)
                ~hi:Physical_index.Unbounded
          | Xp.Ge ->
              Physical_index.lookup_range pi ~lo:(Physical_index.Inclusive key)
                ~hi:Physical_index.Unbounded))

(* The where-clause groups (CNF: every group must have at least one
   satisfied disjunct) that constrain a binding's variable. *)
let binding_groups (info : Rewriter.binding_info) (where : Ast.where_group list) =
  List.filter
    (fun (group : Ast.where_group) ->
      match group with
      | [] -> false
      | first :: _ -> String.equal first.Ast.var info.var)
    where

let rec groups_hold doc e = function
  | [] -> true
  | group :: groups -> group_holds doc e group && groups_hold doc e groups

and group_holds doc e = function
  | [] -> false
  | p :: ps -> Eval.holds doc e p || group_holds doc e ps

let where_of_statement = function
  | Ast.Select f -> f.where
  | Ast.Insert _ | Ast.Delete _ | Ast.Update _ -> []

(* Find the materialized index backing a plan choice. *)
let physical_for catalog (choice : Plan.index_choice) =
  let table = choice.def.Index_def.table in
  List.find_opt
    (fun pi -> Index_def.same (Physical_index.def pi) choice.def)
    (Catalog.real_indexes catalog table)

(* The running simulated cost is a flat [C.meter]; [run_plan] copies it
   into the metrics.  Every charge adds one term, in the order the work
   happens.  A scan's or a probe's charge allocates only its boxed result;
   a visited document's charges add themselves ([C.charge_doc_verify],
   [C.charge_doc_fetch]) and allocate nothing. *)
let[@inline] charge (meter : C.meter) cost = meter.cost <- meter.cost +. cost

(* The documents a binding's plan visits: the whole table, or the ones its
   index probes return, in probe order. *)
type access =
  | Table_scan
  | Fetch of Doc_store.doc_id list

(* Probe the plan's indexes, charging the probes.  A plan whose indexes are
   not all materialized (a virtual plan executed without them) scans the
   table. *)
let access catalog metrics meter (b : Plan.planned_binding) =
  let doc_ids_of_entries entries =
    metrics.index_entries <- metrics.index_entries + List.length entries;
    charge meter (C.probe_cpu (List.length entries));
    let seen = Hashtbl.create 64 in
    List.filter_map
      (fun (e : Physical_index.entry) ->
        if Hashtbl.mem seen e.doc then None
        else begin
          Hashtbl.add seen e.doc ();
          Some e.doc
        end)
      entries
  in
  let probe_all physicals choices =
    List.map2
      (fun pi (choice : Plan.index_choice) ->
        charge meter (C.descent choice.stats.Xia_index.Index_stats.levels);
        doc_ids_of_entries (probe pi choice.access))
      physicals choices
  in
  let union_of doc_sets =
    let seen = Hashtbl.create 64 in
    List.concat_map
      (fun ids ->
        List.filter
          (fun id ->
            if Hashtbl.mem seen id then false
            else begin
              Hashtbl.add seen id ();
              true
            end)
          ids)
      doc_sets
  in
  let inter_of = function
    | [] -> []
    | first :: rest ->
        List.fold_left
          (fun acc ids ->
            let set = Hashtbl.create 64 in
            List.iter (fun id -> Hashtbl.replace set id ()) ids;
            List.filter (Hashtbl.mem set) acc)
          first rest
  in
  let combined combine choices =
    let physicals = List.filter_map (physical_for catalog) choices in
    if List.length physicals <> List.length choices then Table_scan
    else Fetch (combine (probe_all physicals choices))
  in
  match b.plan with
  | Plan.Doc_scan -> Table_scan
  | Plan.Index_or choices -> combined union_of choices
  | Plan.Index_scan choice -> combined List.concat [ choice ] (* one probe, as it is *)
  | Plan.Index_and choices -> combined inter_of choices

(* Fold [f doc_id doc] over the documents [access] visits, charging each
   visit. *)
let visit_docs catalog metrics meter (b : Plan.planned_binding) access f init =
  let store = Catalog.store catalog b.info.Rewriter.source.Ast.table in
  let nfilters = List.length b.info.Rewriter.filters in
  match access with
  | Table_scan ->
      charge meter (C.table_scan_io (Doc_store.pages store));
      Doc_store.fold
        (fun doc_id doc acc ->
          metrics.docs_scanned <- metrics.docs_scanned + 1;
          C.charge_doc_verify meter ~elements:(Packed.elements doc) ~predicates:nfilters;
          f doc_id doc acc)
        store init
  | Fetch doc_ids ->
      List.fold_left
        (fun acc doc_id ->
          match Doc_store.find_packed store doc_id with
          | None -> acc
          | Some doc ->
              metrics.docs_fetched <- metrics.docs_fetched + 1;
              C.charge_doc_fetch meter doc.bytes;
              C.charge_doc_verify meter ~elements:(Packed.elements doc) ~predicates:nfilters;
              f doc_id doc acc)
        init doc_ids

(* [bound doc] counts a binding's bound nodes within one document, after
   its where groups.  The path and predicates are compiled once per
   binding, so a document where nothing binds allocates nothing. *)
let bound_counter catalog where (b : Plan.planned_binding) =
  let labels = Doc_store.labels (Catalog.store catalog b.info.Rewriter.source.Ast.table) in
  let path = Eval.path labels b.info.Rewriter.source.Ast.path in
  let groups =
    List.map
      (List.map (fun (w : Ast.where_clause) -> Eval.predicate labels w.predicate))
      (binding_groups b.info where)
  in
  let keep doc e = groups_hold doc e groups in
  fun doc -> Eval.count path keep doc

(* Rows of one binding: its bound nodes summed over the documents. *)
let binding_rows catalog metrics meter where b =
  let bound = bound_counter catalog where b in
  visit_docs catalog metrics meter b (access catalog metrics meter b)
    (fun _ doc rows -> rows + bound doc) 0

(* Documents where a binding binds a node: a scan, which visits ids in
   ascending order, lists them in descending id order, a fetch in probe
   order; a delete or update writes them, and charges them, in that
   order. *)
let binding_docs catalog metrics meter where b =
  let bound = bound_counter catalog where b in
  let access = access catalog metrics meter b in
  let found =
    visit_docs catalog metrics meter b access
      (fun doc_id doc acc -> if bound doc > 0 then doc_id :: acc else acc)
      []
  in
  match access with
  | Table_scan -> found
  | Fetch _ -> List.rev found

(* Replace the direct text of the elements matched by [target]. *)
let set_value doc target new_value =
  let target = Eval.path doc.Packed.labels target in
  Packed.set_text doc (Eval.elements target doc) new_value

let run_plan catalog (plan : Plan.t) =
  let metrics = fresh_metrics () and meter = { C.cost = 0.0 } in
  (* Wall-clock, not [Sys.time]: the field reports elapsed time. *)
  let t0 = Xia_obs.Obs.now_s () in
  let where = where_of_statement plan.Plan.statement in
  let victims () =
    List.concat_map (fun b -> binding_docs catalog metrics meter where b) plan.Plan.bindings
  in
  let rows =
    match plan.Plan.statement with
    | Ast.Select _ ->
        (* FLWOR without join predicates: result cardinality is the product of
           the per-binding bound-node counts. *)
        List.fold_left
          (fun acc b -> acc * binding_rows catalog metrics meter where b)
          1 plan.Plan.bindings
    | Ast.Insert { table; document } ->
        let store = Catalog.store catalog table in
        let id = Doc_store.insert store document in
        Option.iter
          (fun (doc : Packed.t) -> charge meter (C.doc_write_io doc.bytes))
          (Doc_store.find_packed store id);
        1
    | Ast.Delete { table; _ } ->
        let store = Catalog.store catalog table in
        let victims = victims () in
        List.iter (fun doc_id -> ignore (Doc_store.delete store doc_id)) victims;
        List.length victims
    | Ast.Update { table; target; new_value; _ } ->
        let store = Catalog.store catalog table in
        let victims = victims () in
        List.iter
          (fun doc_id ->
            match Doc_store.find_packed store doc_id with
            | None -> ()
            | Some doc ->
                ignore (Doc_store.update store doc_id (set_value doc target new_value));
                charge meter (C.doc_write_io doc.bytes))
          victims;
        List.length victims
  in
  metrics.simulated_cost <- meter.cost;
  { rows; metrics; wall_seconds = Xia_obs.Obs.now_s () -. t0 }

let run_statement catalog stmt =
  Catalog.refresh_indexes catalog;
  let plan = Optimizer.optimize catalog stmt in
  run_plan catalog plan
