(* Statistics of an index derived purely from data statistics.

   This is how virtual indexes get costed: the advisor never materializes
   them, it sums the per-path RUNSTATS numbers over the dataguide paths the
   index pattern covers and fits a B-tree size model on top, exactly the
   derivation direction the paper describes (index statistics from data
   statistics). *)

module Path_stats = Xia_storage.Path_stats
module Cost_params = Xia_storage.Cost_params

type t = {
  entries : int;
  distinct_keys : int;
  avg_key_bytes : float;
  matched_docs : int;
  entries_per_doc : float;
  size_bytes : int;
  leaf_pages : int;
  levels : int;
  min_num : float;
  max_num : float;
}

let empty =
  {
    entries = 0;
    distinct_keys = 0;
    avg_key_bytes = 0.0;
    matched_docs = 0;
    entries_per_doc = 0.0;
    size_bytes = 0;
    leaf_pages = 0;
    levels = 1;
    min_num = infinity;
    max_num = neg_infinity;
  }

let btree_shape ~entries ~avg_key_bytes =
  if entries = 0 then (Cost_params.page_size, 1, 1)
  else begin
    let entry_bytes =
      (avg_key_bytes *. Cost_params.key_prefix_compression)
      +. float_of_int (Cost_params.rid_bytes + Cost_params.entry_overhead_bytes)
    in
    let per_page =
      max 2
        (int_of_float
           (float_of_int Cost_params.page_size *. Cost_params.leaf_fill_factor /. entry_bytes))
    in
    let leaf_pages = max 1 ((entries + per_page - 1) / per_page) in
    let fanout =
      max 8 (Cost_params.page_size / (int_of_float avg_key_bytes + Cost_params.rid_bytes + 8))
    in
    let rec levels_above pages acc =
      if pages <= 1 then acc else levels_above ((pages + fanout - 1) / fanout) (acc + 1)
    in
    let levels = levels_above leaf_pages 1 in
    let internal_pages = max 0 ((leaf_pages + fanout - 1) / fanout) in
    let size_bytes = (leaf_pages + internal_pages + 1) * Cost_params.page_size in
    (size_bytes, leaf_pages, levels)
  end

let derive (stats : Path_stats.t) (def : Index_def.t) =
  let infos = Path_stats.matching_id stats def.pid in
  let entries, distinct, key_bytes, docs, min_num, max_num =
    List.fold_left
      (fun (entries, distinct, key_bytes, docs, mn, mx) (info : Path_stats.path_info) ->
        match def.dtype with
        | Index_def.Ddouble ->
            ( entries + info.numeric_count,
              distinct + info.distinct_numeric,
              key_bytes +. (8.0 *. float_of_int info.numeric_count),
              docs + (if info.numeric_count > 0 then info.doc_count else 0),
              Float.min mn info.min_num,
              Float.max mx info.max_num )
        | Index_def.Dstring ->
            ( entries + info.node_count,
              distinct + info.distinct_values,
              key_bytes +. float_of_int info.total_value_bytes,
              docs + info.doc_count,
              mn,
              mx ))
      (0, 0, 0.0, 0, infinity, neg_infinity)
      infos
  in
  if entries = 0 then { empty with size_bytes = Cost_params.page_size }
  else begin
    (* Summing per-path doc counts over-counts documents containing several of
       the covered paths; clamp at the table's document count. *)
    let matched_docs = min docs stats.doc_count in
    let avg_key_bytes = key_bytes /. float_of_int entries in
    let size_bytes, leaf_pages, levels = btree_shape ~entries ~avg_key_bytes in
    {
      entries;
      distinct_keys = max 1 (min distinct entries);
      avg_key_bytes;
      matched_docs;
      entries_per_doc =
        (if matched_docs = 0 then 0.0 else float_of_int entries /. float_of_int matched_docs);
      size_bytes;
      leaf_pages;
      levels;
      min_num;
      max_num;
    }
  end

(* Memo of [derive], one cell per definition logical id, holding the
   statistics object its derivation read.  A cell answers only for that
   very object (physical equality): two catalogs whose stores saw as many
   writes have equal generations but not the same statistics.  Each id
   keeps one derivation, so reloading catalogs does not grow the memo. *)
type memo = { mutable source : Path_stats.t option; mutable derived : t }

let memo : memo Xia_xpath.Interner.Dense.t = Xia_xpath.Interner.Dense.create ()

let fresh_memo () _ = { source = None; derived = empty }

let derive_cached stats (def : Index_def.t) =
  let m = Xia_xpath.Interner.Dense.find_or_compute memo def.lid fresh_memo () in
  match m.source with
  | Some source when source == stats -> m.derived
  | Some _ | None ->
      let derived = derive stats def in
      m.source <- Some stats;
      m.derived <- derived;
      derived
