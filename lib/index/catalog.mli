(** Database catalog: tables, statistics and real indexes.

    Virtual indexes are not stored here: the optimizer's Evaluate mode takes
    a virtual-index configuration with each call
    ([Optimizer.optimize ~virtual_config]).

    A catalog carries a capability: {!create} returns a writable
    [[ `Write ] t], the mutators take [[> `Write ] t], and the readers take
    any catalog.  Every what-if interface takes [_ t] and {!read_only}
    drops the capability, so a what-if path that calls a mutator is a type
    error. *)

module Doc_store = Xia_storage.Doc_store
module Path_stats = Xia_storage.Path_stats

type 'cap t

val create : unit -> [ `Write ] t

(** The same catalog without its write capability. *)
val read_only : _ t -> [ `Read ] t

(** @raise Invalid_argument on duplicate table names. *)
val add_table : [> `Write ] t -> Doc_store.t -> unit

val table_names : _ t -> string list

(** The table's document store, which DML mutates. *)
val store : [> `Write ] t -> string -> Doc_store.t

(** Pages the table's stored documents occupy ({!Doc_store.pages}). *)
val pages : _ t -> string -> int

(** Collect (and cache) statistics for one table. *)
val runstats : [> `Write ] t -> string -> Path_stats.t

val runstats_all : [> `Write ] t -> unit

(** Cached statistics, recollected automatically when the table changed.
    A reader: a store generation's statistics are a deterministic function
    of the store, so the first read after a change only fills the cache. *)
val stats : _ t -> string -> Path_stats.t

(** Materialize an index. @raise Invalid_argument on logical duplicates. *)
val create_index : [> `Write ] t -> Index_def.t -> Physical_index.t

(** Drop a real index by name; [false] if absent. *)
val drop_index : [> `Write ] t -> string -> bool

val drop_all_indexes : [> `Write ] t -> unit

(** Bring every real index whose base table changed up to date
    ({!Physical_index.refresh}): only the documents written since the
    index's build are walked again. *)
val refresh_indexes : [> `Write ] t -> unit

val real_indexes : _ t -> string -> Physical_index.t list
