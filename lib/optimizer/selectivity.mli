(** Selectivity estimation from path statistics.

    All estimates are per-path mixtures over the dataguide paths a pattern
    covers: each path contributes its own histogram (or uniform-range) or
    1/distinct fraction weighted by entry count.  This prices general indexes correctly
    (more entries match any condition in a bigger, more mixed population). *)

module Path_stats = Xia_storage.Path_stats
module Index_def = Xia_index.Index_def

type lookup_estimate = Xia_storage.Cost_params.lookup_estimate = {
  entries_matched : float;
  docs_matched : float;
  total_entries : float;
}

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

(** Product over the filters (independence) of the fraction of documents
    satisfying each disjunctive filter. *)
val combined_doc_fraction :
  Path_stats.t -> Xia_query.Rewriter.access list list -> float
