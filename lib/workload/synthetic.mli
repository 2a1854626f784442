(** Synthetic workloads of random path queries occurring in the data
    (Section VII-C of the paper). *)

(** [workload catalog tables n]: [n] random queries spread round-robin over
    [tables].  Deterministic for a fixed [seed]. *)
val workload :
  ?seed:int ->
  ?label_prefix:string ->
  _ Xia_index.Catalog.t ->
  string list ->
  int ->
  Workload.t

(** [skewed_workload ~distinct catalog tables n]: [n] statements Zipf-sampled
    (exponent [alpha], default 1.1) from a pool of [distinct] random
    templates, with rank-decayed statement frequencies — the duplicate-heavy
    regime workload compression targets.  Deterministic for a fixed
    [seed]. *)
val skewed_workload :
  ?seed:int ->
  ?alpha:float ->
  ?label_prefix:string ->
  distinct:int ->
  _ Xia_index.Catalog.t ->
  string list ->
  int ->
  Workload.t
