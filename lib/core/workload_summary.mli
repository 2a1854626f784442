(** Workload compression by basic-candidate signature.

    Clusters statements whose Enumerate-Indexes signatures (sorted interned
    (table, pattern, type) triples) coincide — DML additionally by kind and
    target tables — and summarizes the workload as one representative per
    cluster weighted by the cluster's summed frequency.  The benefit/search
    loop runs on the representatives; enumeration over them yields exactly
    the candidate-definition set of the full workload, so only per-statement
    costs are approximated (exactly when clusters are cost-homogeneous).

    Clustering is deterministic and order-insensitive: permuting the input
    permutes clusters (first-occurrence order) but never changes the
    partition. *)

module Workload = Xia_workload.Workload

type t

type info = {
  statements : int;      (** source workload size *)
  cluster_count : int;
  compressed : bool;
}

(** Identity summary: the statements themselves, each weighted by its
    frequency.  The raw and compressed paths share all downstream code. *)
val raw : Workload.t -> t

(** Cluster by signature.  Costs one [enumerate_indexes] call (pure
    statement analysis — no optimizer cost-model calls) per distinct
    statement: repeated statements, whether physically shared or only
    structurally equal, reuse the first one's cluster key. *)
val compress : Xia_index.Catalog.t -> Workload.t -> t

(** Basic-candidate signature of one statement: sorted interned triple ids.
    Exposed for the differential tests. *)
val signature : Xia_index.Catalog.t -> Xia_query.Ast.statement -> int array

(** One representative item per cluster, in cluster (first-occurrence)
    order.  This is the workload the evaluator and candidate enumeration
    run on. *)
val workload : t -> Workload.t

(** Summed cluster frequencies, aligned with {!workload}. *)
val weights : t -> float array

val cluster_count : t -> int
val info : t -> info
val pp_info : Format.formatter -> info -> unit
