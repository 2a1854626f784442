(* Selectivity estimation from path statistics.

   An index's key population is the union of the value distributions of the
   dataguide paths its pattern covers.  Estimating a predicate against the
   aggregate (min/max over everything) would wildly misprice general indexes
   whose paths have very different value ranges, so every estimate here is a
   per-path mixture: each covered path contributes its own uniform-range (or
   1/distinct) fraction, weighted by its entry count.  This preserves the
   property the paper relies on: a general index holds more entries that
   match any given condition, so probing it costs more than probing a
   specific index. *)

module Path_stats = Xia_storage.Path_stats
module Index_def = Xia_index.Index_def
module Xp = Xia_xpath.Ast

(* Per-path view of the entries an index of type [dtype] stores. *)
type path_view = {
  path : string list;
  entries : int;
  distinct : int;
  docs : int;
  min_num : float;
  max_num : float;
  hist : Xia_storage.Histogram.t option;
}

(* Runtime toggle, for the histogram-accuracy ablation bench.  Atomic: it is
   read from every worker domain during a parallel evaluation, and the bench
   flips it between runs. *)
let use_histograms = Atomic.make true

let path_view dtype (info : Path_stats.path_info) =
  match dtype with
  | Index_def.Ddouble ->
      {
        path = info.path;
        entries = info.numeric_count;
        distinct = max 1 info.distinct_numeric;
        docs = info.doc_count;
        min_num = info.min_num;
        max_num = info.max_num;
        hist = info.histogram;
      }
  | Index_def.Dstring ->
      {
        path = info.path;
        entries = info.node_count;
        distinct = max 1 info.distinct_values;
        docs = info.doc_count;
        min_num = info.min_num;
        max_num = info.max_num;
        hist = info.histogram;
      }

let path_views stats pid dtype =
  List.filter_map
    (fun info ->
      let v = path_view dtype info in
      if v.entries = 0 then None else Some v)
    (Path_stats.matching_id stats pid)

(* Probability mass of cross-path string collisions: a string value drawn
   from the predicate's home domain hits an unrelated path's domain with
   probability [cross_path_collision * distinct_foreign / distinct_home]
   (domain-overlap scaled by relative domain size).  String domains of
   distinct paths (symbols vs sectors vs trade dates...) rarely overlap;
   numeric domains genuinely do, so numeric conditions are never damped. *)
let cross_path_collision = 0.05

(* Fraction of one path's entries matching the condition. *)
let path_selectivity (v : path_view) (condition : Xia_query.Rewriter.condition) =
  let eq_fraction = 1.0 /. float_of_int v.distinct in
  let clamp f = Float.max 0.0 (Float.min 1.0 f) in
  match condition with
  | Xia_query.Rewriter.Cexists -> 1.0
  | Xia_query.Rewriter.Ccompare (cmp, lit) -> (
      match cmp, lit with
      | Xp.Eq, Xp.Number_lit x when v.min_num <= v.max_num ->
          (* Numeric equality misses entirely when the value is out of the
             path's range. *)
          if x < v.min_num || x > v.max_num then 0.0 else eq_fraction
      | Xp.Eq, _ -> eq_fraction
      | Xp.Ne, _ -> 1.0 -. eq_fraction
      | (Xp.Lt | Xp.Le | Xp.Gt | Xp.Ge), Xp.Number_lit x ->
          if v.min_num > v.max_num then 1.0 /. 3.0 (* no numeric stats *)
          else if v.max_num <= v.min_num then (
            (* Single-point distribution. *)
            let holds =
              match cmp with
              | Xp.Lt -> v.min_num < x
              | Xp.Le -> v.min_num <= x
              | Xp.Gt -> v.min_num > x
              | Xp.Ge -> v.min_num >= x
              (* lint: range branch — Eq/Ne handled by the equality arm above *)
              | Xp.Eq | Xp.Ne -> assert false
            in
            if holds then 1.0 else 0.0)
          else begin
            let below =
              match v.hist with
              | Some h when Atomic.get use_histograms ->
                  Xia_storage.Histogram.fraction_below h x
              | Some _ | None ->
                  (* uniform-distribution fallback *)
                  clamp ((x -. v.min_num) /. (v.max_num -. v.min_num))
            in
            let f =
              match cmp with
              | Xp.Lt | Xp.Le -> below
              | Xp.Gt | Xp.Ge -> 1.0 -. below
              (* lint: range branch — Eq/Ne handled by the equality arm above *)
              | Xp.Eq | Xp.Ne -> assert false
            in
            (* Within the range, never estimate below one key's share. *)
            if f <= 0.0 then 0.0 else Float.max eq_fraction (clamp f)
          end
      | (Xp.Lt | Xp.Le | Xp.Gt | Xp.Ge), Xp.String_lit _ ->
          (* Lexical range without histograms: the classic 1/3 guess. *)
          1.0 /. 3.0)

type lookup_estimate = {
  entries_matched : float;  (* index entries satisfying the key condition *)
  docs_matched : float;     (* documents with at least one such entry *)
  total_entries : float;    (* size of the key population *)
}

let empty_estimate = { entries_matched = 0.0; docs_matched = 0.0; total_entries = 0.0 }

(* Expected matches of a condition against the key population of the
   pattern with id [pid] (per-path mixture; documents collapse binomially
   per path and are clamped by the table's document count).  When [query] —
   the id of the predicate's own pattern — is given, string-equality
   contributions from paths outside the query pattern are damped by
   [cross_path_collision].  Whether a path is the query's own ("home") is
   an NFA walk, so it is decided once per path, and only for a string
   equality or inequality, the conditions that ask. *)
let lookup_estimate ?query (stats : Path_stats.t) pid dtype condition =
  let views = path_views stats pid dtype in
  let add acc v sel =
    let entries = float_of_int v.entries in
    let epd = Float.max 1.0 (entries /. float_of_int (max 1 v.docs)) in
    let docs = float_of_int v.docs *. (1.0 -. ((1.0 -. sel) ** epd)) in
    {
      entries_matched = acc.entries_matched +. (sel *. entries);
      docs_matched = acc.docs_matched +. docs;
      total_entries = acc.total_entries +. entries;
    }
  in
  let est =
    match condition, query with
    | Xia_query.Rewriter.Ccompare (((Xp.Eq | Xp.Ne) as cmp), Xp.String_lit _), Some q ->
        let homes = List.map (fun v -> Xia_xpath.Pattern.accepts_id q v.path) views in
        (* Size of the home domain, for scaling cross-path collision mass. *)
        let home_distinct =
          max 1
            (List.fold_left2 (fun acc v home -> if home then acc + v.distinct else acc) 0 views homes)
        in
        let foreign =
          match cmp with
          | Xp.Ne ->
              (* Ne outside the home path still matches ~everything. *)
              1.0
          | _ ->
              (* Eq: expected foreign hits per entry, uniform over the home
                 domain. *)
              Float.min 1.0 (cross_path_collision /. float_of_int home_distinct)
        in
        List.fold_left2
          (fun acc v home -> add acc v (if home then path_selectivity v condition else foreign))
          empty_estimate views homes
    | Xia_query.Rewriter.Ccompare (_, _), _ | Xia_query.Rewriter.Cexists, _ ->
        List.fold_left (fun acc v -> add acc v (path_selectivity v condition)) empty_estimate views
  in
  { est with docs_matched = Float.min est.docs_matched (float_of_int stats.doc_count) }

(* Fraction of the table's documents satisfying one access. *)
let doc_fraction (stats : Path_stats.t) (access : Xia_query.Rewriter.access) =
  if stats.doc_count = 0 then 0.0
  else
    let est =
      lookup_estimate stats (Xia_xpath.Pattern.id access.pattern) access.dtype access.condition
    in
    Float.min 1.0 (est.docs_matched /. float_of_int stats.doc_count)

(* Fraction of documents satisfying a disjunctive filter (inclusion under
   independence: 1 - prod of misses). *)
let filter_doc_fraction stats (filter : Xia_query.Rewriter.access list) =
  1.0
  -. List.fold_left (fun acc a -> acc *. (1.0 -. doc_fraction stats a)) 1.0 filter

(* Combined fraction of documents satisfying all filters (independence). *)
let combined_doc_fraction stats filters =
  List.fold_left (fun acc f -> acc *. filter_doc_fraction stats f) 1.0 filters
