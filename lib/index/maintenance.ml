(* Index maintenance cost model: the [mc(x, s)] term of the paper's benefit
   formula.

   DB2's optimizer estimates for update/delete/insert statements do not
   include the cost of updating indexes, so the advisor charges each index in
   a configuration for the entries a data-modifying statement would touch:
   inserting a document adds (on average) [entries_per_doc] entries to every
   index whose pattern matches somewhere in documents of that table,
   deleting removes them, and an update is charged the same entries.  Pure
   queries have zero maintenance cost. *)

let cost (stats : Index_stats.t) ~docs_affected =
  (* Only documents that actually contribute entries matter. *)
  Xia_storage.Cost_params.upkeep ~entries_per_doc:stats.entries_per_doc
    ~docs:(if stats.matched_docs = 0 then 0.0 else docs_affected)
    ~levels:stats.levels
