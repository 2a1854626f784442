(** Database catalog: tables, statistics and real indexes.

    Virtual indexes are not stored here: the optimizer's Evaluate mode takes
    a virtual-index configuration with each call
    ([Optimizer.optimize ~virtual_config]). *)

module Doc_store = Xia_storage.Doc_store
module Path_stats = Xia_storage.Path_stats

type table = {
  store : Doc_store.t;
  mutable stats : Path_stats.t option;
  mutable real_indexes : Physical_index.t list;
}

type t

val create : unit -> t

(** @raise Invalid_argument on duplicate table names. *)
val add_table : t -> Doc_store.t -> table

val find_table : t -> string -> table option

val table_names : t -> string list
val store : t -> string -> Doc_store.t

(** Collect (and cache) statistics for one table. *)
val runstats : t -> string -> Path_stats.t

val runstats_all : t -> unit

(** Cached statistics, recollected automatically when the table changed. *)
val stats : t -> string -> Path_stats.t

(** Force-collect any missing or stale statistics for every table.  An
    evaluator calls it when it is built, so every statement it prepares is
    bound to the statistics current at its creation
    ({!Xia_advisor.Benefit.create}) and later [stats] reads are lookups. *)
val warm_stats : t -> unit

(** Materialize an index. @raise Invalid_argument on logical duplicates. *)
val create_index : t -> Index_def.t -> Physical_index.t

(** Drop a real index by name; [false] if absent. *)
val drop_index : t -> string -> bool

val drop_all_indexes : t -> unit

(** Rebuild real indexes whose base table changed. *)
val refresh_indexes : t -> unit

val real_indexes : t -> string -> Physical_index.t list
