(** TPoX-like benchmark: deterministic data generator (securities, customer
    accounts, FIXML orders) and the 11-query workload the paper evaluates on,
    plus DML statements for maintenance experiments. *)

val security_table : string
val custacc_table : string
val order_table : string

(** Deterministic single-document generators (exposed for tests). *)
val security : Random.State.t -> int -> Xia_xml.Types.t

val customer : Random.State.t -> int -> Xia_xml.Types.t

val order :
  Random.State.t -> int -> n_securities:int -> n_customers:int -> Xia_xml.Types.t

type scale = {
  securities : int;
  customers : int;
  orders : int;
}

val default_scale : scale
val tiny_scale : scale

(** Create and fill the three tables in the catalog, then collect
    statistics. *)
val load : ?scale:scale -> ?seed:int -> Xia_index.Catalog.t -> unit

val query_strings : string list

(** The 11 read-only queries (Q1 and Q2 are the paper's running examples). *)
val queries : unit -> Workload.t

(** Insert / update / delete statements (order entry, price update, ...). *)
val dml : unit -> Workload.t

(** Nine "variation" queries on unseen leaves under the subtrees the main
    queries navigate — the future-workload scenario of Section VII-C. *)
val variation_queries : unit -> Workload.t

(** Alias for {!queries}. *)
val workload : unit -> Workload.t

(** Queries plus DML with the given frequency on each DML statement. *)
val workload_with_updates : ?update_freq:float -> unit -> Workload.t
