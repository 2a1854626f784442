(** Basic candidate enumeration through the optimizer's Enumerate Indexes
    mode (Section IV). *)

(** Basic candidates of a workload, with affected sets seeded by the
    statements that produced each pattern.  The catalog is accepted and
    ignored, only because the advisor benchmark passes one. *)
val basic_candidates :
  _ Xia_index.Catalog.t -> Xia_workload.Workload.t -> Candidate.set

(** [basic_candidates] followed by generalization to a fixpoint. *)
val candidates : Xia_workload.Workload.t -> Candidate.set
