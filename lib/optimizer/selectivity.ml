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

(* Runtime toggle, for the histogram-accuracy ablation bench, which flips
   it between runs. *)
let use_histograms = ref true [@@lint.allow "D001"]

(* The entries an index of type [dtype] stores for one path, and their
   distinct keys (at least one). *)
let typed_entries dtype (info : Path_stats.path_info) =
  match dtype with
  | Index_def.Ddouble -> info.numeric_count
  | Index_def.Dstring -> info.node_count

let typed_distinct dtype (info : Path_stats.path_info) =
  match dtype with
  | Index_def.Ddouble -> max 1 info.distinct_numeric
  | Index_def.Dstring -> max 1 info.distinct_values

(* Probability mass of cross-path string collisions: a string value drawn
   from the predicate's home domain hits an unrelated path's domain with
   probability [cross_path_collision * distinct_foreign / distinct_home]
   (domain-overlap scaled by relative domain size).  String domains of
   distinct paths (symbols vs sectors vs trade dates...) rarely overlap;
   numeric domains genuinely do, so numeric conditions are never damped. *)
let cross_path_collision = 0.05

(* Fraction of one path's entries matching the condition; [distinct] is the
   path's distinct keys for the index type. *)
let path_selectivity ~distinct (v : Path_stats.path_info)
    (condition : Xia_query.Rewriter.condition) =
  let eq_fraction = 1.0 /. float_of_int distinct in
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
              match v.histogram with
              | Some h when !use_histograms ->
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

(* The cost model prices an index scan from it. *)
type lookup_estimate = Xia_storage.Cost_params.lookup_estimate = {
  entries_matched : float;  (* index entries satisfying the key condition *)
  docs_matched : float;     (* documents with at least one such entry *)
  total_entries : float;    (* size of the key population *)
}

(* Expected matches of a condition against the key population of the
   pattern with id [pid] (per-path mixture; documents collapse binomially
   per path and are clamped by the table's document count).  When [query] —
   the id of the predicate's own pattern — is given, string-equality
   contributions from paths outside the query pattern are damped by
   [cross_path_collision].  Whether a path is the query's own ("home") is
   an NFA walk, so it is decided once per path, and only for a string
   equality or inequality, the conditions that ask.  The covered paths are
   walked in place, summing into local floats (seeded with [0.0]) in path
   order: besides that flag per path, a probe builds one record, the
   result. *)
let lookup_estimate ?query (stats : Path_stats.t) pid dtype condition =
  let paths = Path_stats.matching_id stats pid in
  (* The query pattern when foreign paths are damped, else -1. *)
  let home =
    match condition, query with
    | Xia_query.Rewriter.Ccompare ((Xp.Eq | Xp.Ne), Xp.String_lit _), Some q -> q
    | Xia_query.Rewriter.Ccompare (_, _), _ | Xia_query.Rewriter.Cexists, _ -> -1
  in
  (* One byte per covered path holding typed entries: set for a home path.
     The home domain's size scales the cross-path collision mass. *)
  let homes = Bytes.make (if home < 0 then 0 else List.length paths) '\000' in
  let home_distinct = ref 0 and rest = ref paths and k = ref 0 in
  while home >= 0 && !rest <> [] do
    match !rest with
    | [] -> ()
    | (info : Path_stats.path_info) :: tl ->
        if typed_entries dtype info <> 0 && Xia_xpath.Pattern.accepts_id home info.path then begin
          Bytes.set homes !k '\001';
          home_distinct := !home_distinct + typed_distinct dtype info
        end;
        rest := tl;
        incr k
  done;
  let foreign =
    match condition with
    | _ when home < 0 -> 0.0
    | Xia_query.Rewriter.Ccompare (Xp.Ne, _) ->
        (* Ne outside the home path still matches ~everything. *)
        1.0
    | Xia_query.Rewriter.Ccompare (_, _) | Xia_query.Rewriter.Cexists ->
        (* Eq: expected foreign hits per entry, uniform over the home
           domain. *)
        Float.min 1.0 (cross_path_collision /. float_of_int (max 1 !home_distinct))
  in
  let entries_matched = ref 0.0 and docs_matched = ref 0.0 and total_entries = ref 0.0 in
  rest := paths;
  k := 0;
  while !rest <> [] do
    match !rest with
    | [] -> ()
    | (info : Path_stats.path_info) :: tl ->
        rest := tl;
        let n = typed_entries dtype info in
        if n <> 0 then begin
          let sel =
            if home >= 0 && Bytes.get homes !k = '\000' then foreign
            else path_selectivity ~distinct:(typed_distinct dtype info) info condition
          in
          let entries = float_of_int n in
          let epd = Float.max 1.0 (entries /. float_of_int (max 1 info.doc_count)) in
          let docs = float_of_int info.doc_count *. (1.0 -. ((1.0 -. sel) ** epd)) in
          entries_matched := !entries_matched +. (sel *. entries);
          docs_matched := !docs_matched +. docs;
          total_entries := !total_entries +. entries
        end;
        incr k
  done;
  {
    entries_matched = !entries_matched;
    docs_matched = Float.min !docs_matched (float_of_int stats.doc_count);
    total_entries = !total_entries;
  }

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
