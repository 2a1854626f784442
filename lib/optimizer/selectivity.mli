(** Selectivity estimation from path statistics.

    All estimates are per-path mixtures over the dataguide paths a pattern
    covers: each path contributes its own uniform-range or 1/distinct
    fraction weighted by entry count.  This prices general indexes correctly
    (more entries match any condition in a bigger, more mixed population). *)

module Path_stats = Xia_storage.Path_stats
module Index_def = Xia_index.Index_def

(** Per-path view of the entries an index of a given type stores. *)
type path_view = {
  path : string list;
  entries : int;
  distinct : int;
  docs : int;
  min_num : float;
  max_num : float;
  hist : Xia_storage.Histogram.t option;
}

(** When set (the default), numeric range selectivities use the per-path
    histograms collected by RUNSTATS instead of a uniform-range assumption.
    Exposed for the histogram-accuracy ablation.  Atomic because worker
    domains read it during parallel evaluation; toggle it only between
    evaluations, not while one is in flight. *)
val use_histograms : bool Atomic.t

(** Damping applied to string-equality matches from paths outside the
    predicate's own pattern (string value domains rarely overlap). *)
val cross_path_collision : float

val path_view : Index_def.data_type -> Path_stats.path_info -> path_view

(** Paths covered by the pattern with this interned id
    ({!Xia_xpath.Pattern.id}) that hold at least one typed entry. *)
val path_views : Path_stats.t -> int -> Index_def.data_type -> path_view list

(** Fraction of one path's entries matching a condition. *)
val path_selectivity : path_view -> Xia_query.Rewriter.condition -> float

type lookup_estimate = {
  entries_matched : float;
  docs_matched : float;
  total_entries : float;
}

val empty_estimate : lookup_estimate

(** Expected matches of a condition against the key population of the
    pattern with this interned id ({!Xia_xpath.Pattern.id}).  [query] is
    the id of the predicate's own pattern; when given, string-equality
    contributions from paths outside it are damped. *)
val lookup_estimate :
  ?query:int ->
  Path_stats.t ->
  int ->
  Index_def.data_type ->
  Xia_query.Rewriter.condition ->
  lookup_estimate

(** Fraction of the table's documents satisfying one access. *)
val doc_fraction : Path_stats.t -> Xia_query.Rewriter.access -> float

(** Fraction of documents satisfying a disjunctive filter. *)
val filter_doc_fraction : Path_stats.t -> Xia_query.Rewriter.access list -> float

(** Product of {!filter_doc_fraction} over the filters (independence). *)
val combined_doc_fraction :
  Path_stats.t -> Xia_query.Rewriter.access list list -> float
