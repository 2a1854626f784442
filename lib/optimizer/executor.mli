(** Physical plan execution — used to measure actual (not estimated)
    workload speedups. *)

module Catalog = Xia_index.Catalog
module Ast = Xia_query.Ast

type metrics = {
  mutable docs_scanned : int;   (** documents examined by table scans *)
  mutable docs_fetched : int;   (** documents fetched through indexes *)
  mutable index_entries : int;  (** index entries touched *)
  mutable simulated_cost : float;
  (** work actually performed, in cost-model units: I/O for pages touched plus
      CPU for nodes navigated and index entries scanned; set when the run
      ends *)
}

type result = {
  rows : int;
  metrics : metrics;
  wall_seconds : float;  (** elapsed wall-clock time ([Xia_obs.Obs.now_s]) *)
}

(** Replace the direct text content of the elements matched by the target
    path (element children are preserved); the document is copied. *)
val set_value : Xia_xml.Packed.t -> Xia_xpath.Ast.path -> string -> Xia_xml.Packed.t

(** Execute a plan.  A virtual index scan whose index is not materialized
    falls back to a document scan. *)
val run_plan : [> `Write ] Catalog.t -> Plan.t -> result

(** Refresh stale indexes, plan over the real indexes
    ({!Optimizer.optimize}) and execute. *)
val run_statement : [> `Write ] Catalog.t -> Ast.statement -> result
