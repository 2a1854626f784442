(* Physical execution of plans.

   Used to measure the paper's "actual speedup": queries really run, either
   by scanning and navigating every document or by probing materialized
   indexes and verifying the fetched documents.  Execution also accumulates a
   simulated I/O figure using the same constants as the cost model, giving a
   hardware-independent view of the work done. *)

module Catalog = Xia_index.Catalog
module Physical_index = Xia_index.Physical_index
module Index_def = Xia_index.Index_def
module Doc_store = Xia_storage.Doc_store
module C = Xia_storage.Cost_params
module Ast = Xia_query.Ast
module Rewriter = Xia_query.Rewriter
module Xp = Xia_xpath.Ast
module Eval = Xia_xpath.Eval

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

let rec groups_hold e = function
  | [] -> true
  | group :: groups -> group_holds e group && groups_hold e groups

and group_holds e = function
  | [] -> false
  | (w : Ast.where_clause) :: ws -> Eval.predicate_holds_on e w.predicate || group_holds e ws

(* Bound nodes of a binding within one document, after its where groups. *)
let binding_matches path groups doc =
  List.filter (fun (n : Eval.elem) -> groups_hold n.element groups) (Eval.eval_elements doc path)

let where_of_statement = function
  | Ast.Select f -> f.where
  | Ast.Insert _ | Ast.Delete _ | Ast.Update _ -> []

(* Find the materialized index backing a plan choice. *)
let physical_for catalog (choice : Plan.index_choice) =
  let table = choice.def.Index_def.table in
  List.find_opt
    (fun pi -> Index_def.same (Physical_index.def pi) choice.def)
    (Catalog.real_indexes catalog table)

(* Charges for one document, from the sizes its store entry keeps. *)
let doc_pages (e : Doc_store.entry) =
  Float.max 1.0 (float_of_int e.bytes /. float_of_int C.page_size)

(* CPU charge for navigating one document during verification. *)
let doc_cpu (e : Doc_store.entry) nfilters =
  (float_of_int e.elements *. C.cpu_per_node)
  +. (float_of_int (nfilters + 1) *. C.cpu_per_predicate)

(* Execute one binding, returning the matching (doc_id, bound nodes) pairs. *)
let run_binding catalog metrics where (b : Plan.planned_binding) =
  let table = b.info.Rewriter.source.Ast.table in
  let store = Catalog.store catalog table in
  let nfilters = List.length b.info.Rewriter.filters in
  let path = b.info.Rewriter.source.Ast.path in
  let groups = binding_groups b.info where in
  let scan_all () =
    metrics.simulated_cost <-
      metrics.simulated_cost
      +. (float_of_int (Doc_store.pages store) *. C.sequential_page_cost);
    Doc_store.fold
      (fun doc_id (e : Doc_store.entry) acc ->
        metrics.docs_scanned <- metrics.docs_scanned + 1;
        metrics.simulated_cost <- metrics.simulated_cost +. doc_cpu e nfilters;
        match binding_matches path groups e.doc with
        | [] -> acc
        | nodes -> (doc_id, nodes) :: acc)
      store []
  in
  let fetch_and_verify doc_ids =
    List.filter_map
      (fun doc_id ->
        match Doc_store.find_entry store doc_id with
        | None -> None
        | Some e ->
            metrics.docs_fetched <- metrics.docs_fetched + 1;
            metrics.simulated_cost <-
              metrics.simulated_cost
              +. (doc_pages e *. C.effective_random_page_cost)
              +. doc_cpu e nfilters;
            (match binding_matches path groups e.doc with
            | [] -> None
            | nodes -> Some (doc_id, nodes)))
      doc_ids
  in
  let doc_ids_of_entries entries =
    metrics.index_entries <- metrics.index_entries + List.length entries;
    metrics.simulated_cost <-
      metrics.simulated_cost
      +. (float_of_int (List.length entries) *. C.cpu_per_index_entry);
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
  match b.plan with
  | Plan.Doc_scan -> scan_all ()
  | Plan.Index_or choices -> (
      let physicals = List.filter_map (physical_for catalog) choices in
      if List.length physicals <> List.length choices then scan_all ()
      else
        let doc_sets =
          List.map2
            (fun pi choice ->
              metrics.simulated_cost <-
                metrics.simulated_cost
                +. (float_of_int choice.Plan.stats.Xia_index.Index_stats.levels
                   *. C.effective_random_page_cost);
              doc_ids_of_entries (probe pi choice.Plan.access))
            physicals choices
        in
        fetch_and_verify (union_of doc_sets))
  | Plan.Index_scan choice -> (
      match physical_for catalog choice with
      | None -> scan_all () (* virtual plan executed without the index *)
      | Some pi ->
          metrics.simulated_cost <-
            metrics.simulated_cost
            +. (float_of_int choice.stats.Xia_index.Index_stats.levels
               *. C.effective_random_page_cost);
          fetch_and_verify (doc_ids_of_entries (probe pi choice.access)))
  | Plan.Index_and choices -> (
      let physicals = List.filter_map (physical_for catalog) choices in
      if List.length physicals <> List.length choices then scan_all ()
      else begin
        let doc_sets =
          List.map2
            (fun pi choice ->
              metrics.simulated_cost <-
                metrics.simulated_cost
                +. (float_of_int choice.Plan.stats.Xia_index.Index_stats.levels
                   *. C.effective_random_page_cost);
              doc_ids_of_entries (probe pi choice.Plan.access))
            physicals choices
        in
        match doc_sets with
        | [] -> []
        | first :: rest ->
            let inter =
              List.fold_left
                (fun acc ids ->
                  let set = Hashtbl.create 64 in
                  List.iter (fun id -> Hashtbl.replace set id ()) ids;
                  List.filter (Hashtbl.mem set) acc)
                first rest
            in
            fetch_and_verify inter
      end)

(* Replace the direct text of the elements matched by [target]. *)
let set_value doc target new_value =
  let hit_set = Hashtbl.create 8 in
  List.iter (fun (n : Eval.elem) -> Hashtbl.replace hit_set n.pre ()) (Eval.eval_elements doc target);
  let counter = ref 0 in
  let rec rebuild = function
    | Xia_xml.Types.Text _ as t -> t
    | Xia_xml.Types.Element e ->
        let pre = !counter in
        incr counter;
        let children = List.map rebuild e.children in
        if Hashtbl.mem hit_set pre then
          let non_text =
            List.filter
              (fun c -> match c with Xia_xml.Types.Element _ -> true | Xia_xml.Types.Text _ -> false)
              children
          in
          Xia_xml.Types.Element
            { e with children = Xia_xml.Types.Text new_value :: non_text }
        else Xia_xml.Types.Element { e with children }
  in
  rebuild doc

let run_plan catalog (plan : Plan.t) =
  let metrics = fresh_metrics () in
  (* Wall-clock, not [Sys.time]: process CPU time exceeds wall time once the
     advisor evaluates on several domains, which made the field nonsense. *)
  let t0 = Xia_obs.Obs.now_s () in
  let where = where_of_statement plan.Plan.statement in
  let rows =
    match plan.Plan.statement with
    | Ast.Select _ ->
        (* FLWOR without join predicates: result cardinality is the product of
           the per-binding bound-node counts. *)
        List.fold_left
          (fun acc b ->
            let matches = run_binding catalog metrics where b in
            let count =
              List.fold_left (fun n (_, nodes) -> n + List.length nodes) 0 matches
            in
            acc * count)
          1 plan.Plan.bindings
    | Ast.Insert { table; document } ->
        let store = Catalog.store catalog table in
        let id = Doc_store.insert store document in
        Option.iter
          (fun e ->
            metrics.simulated_cost <-
              metrics.simulated_cost +. (doc_pages e *. C.sequential_page_cost))
          (Doc_store.find_entry store id);
        1
    | Ast.Delete { table; _ } ->
        let store = Catalog.store catalog table in
        let victims =
          List.concat_map
            (fun b -> List.map fst (run_binding catalog metrics where b))
            plan.Plan.bindings
        in
        List.iter (fun doc_id -> ignore (Doc_store.delete store doc_id)) victims;
        List.length victims
    | Ast.Update { table; target; new_value; _ } ->
        let store = Catalog.store catalog table in
        let victims =
          List.concat_map
            (fun b -> List.map fst (run_binding catalog metrics where b))
            plan.Plan.bindings
        in
        List.iter
          (fun doc_id ->
            match Doc_store.find_entry store doc_id with
            | None -> ()
            | Some e ->
                ignore (Doc_store.replace store doc_id (set_value e.doc target new_value));
                metrics.simulated_cost <-
                  metrics.simulated_cost +. (doc_pages e *. C.sequential_page_cost))
          victims;
        List.length victims
  in
  { rows; metrics; wall_seconds = Xia_obs.Obs.now_s () -. t0 }

let run_statement catalog stmt =
  Catalog.refresh_indexes catalog;
  let plan = Optimizer.optimize ~mode:Optimizer.Normal catalog stmt in
  run_plan catalog plan
