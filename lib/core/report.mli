(** What-if analysis: evaluate an arbitrary index configuration over a
    workload (DB2's EVALUATE INDEXES as a service), with per-statement
    costs, per-index maintenance charges and unused-index warnings; and the
    drop review of a materialized configuration.

    This is the one what-if costing path outside the search: each
    statement is {!Xia_optimizer.Optimizer.prepare}d once, and each
    configuration costed is one prepared batch over those statements.
    Every total sums its terms in workload order. *)

module Catalog = Xia_index.Catalog
module Index_def = Xia_index.Index_def
module Workload = Xia_workload.Workload

type statement_report = {
  label : string;
  freq : float;
  base_cost : float;  (** estimated cost with no index *)
  new_cost : float;   (** estimated cost under the configuration *)
  speedup : float;    (** [base_cost /. new_cost] ([1.] at zero cost) *)
  indexes_used : Index_def.t list;  (** by the configured plan *)
}

type t = {
  defs : Index_def.t list;
  total_size : int;  (** estimated bytes of every index *)
  statements : statement_report list;  (** in workload order *)
  base_total : float;  (** Σ freq · base_cost *)
  new_total : float;   (** Σ freq · new_cost *)
  est_speedup : float;
  maintenance : float;
      (** the configuration's maintenance charge: per DML item, in workload
          order, each index of a table the item writes, in [defs] order,
          charged freq · maintenance cost of the item's affected documents *)
  index_maintenance : (Index_def.t * float) list;
      (** each index of [defs] with its own maintenance charge, summed over
          the DML items in workload order: the [maintenance] of a report on
          that index alone *)
  unused : Index_def.t list;  (** the defs no configured plan uses *)
}

(** Cost the workload with no index and under the configuration.
    @raise Invalid_argument when a statement names an unknown table. *)
val evaluate_configuration : _ Catalog.t -> Workload.t -> Index_def.t list -> t

val pp : Format.formatter -> t -> unit

(** Why an existing index should be dropped. *)
type drop_reason =
  | Unused
  | Maintenance_exceeds_benefit of { benefit : float; maintenance : float }

val pp_drop_reason : Format.formatter -> drop_reason -> unit

(** Review the catalog's materialized indexes against a workload and
    recommend drops, in catalog order: indexes no plan uses, and indexes
    whose own maintenance charge exceeds their benefit, the workload cost
    without them minus [new_total].  Built from one report over every
    materialized index plus one cost batch per used index, all over the
    same prepared statements. *)
val drop_recommendations : _ Catalog.t -> Workload.t -> (Index_def.t * drop_reason) list
