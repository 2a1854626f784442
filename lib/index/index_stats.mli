(** Index statistics derived from data statistics — what the optimizer sees
    for a {e virtual} index.  Derived by aggregating {!Xia_storage.Path_stats}
    over the dataguide paths the index pattern covers and fitting a B-tree
    size model. *)

module Path_stats = Xia_storage.Path_stats
module Cost_params = Xia_storage.Cost_params

type t = {
  entries : int;            (** number of indexed (typed) nodes *)
  distinct_keys : int;
  avg_key_bytes : float;
  matched_docs : int;       (** documents contributing at least one entry *)
  entries_per_doc : float;
  size_bytes : int;         (** estimated on-disk size *)
  leaf_pages : int;
  levels : int;             (** B-tree height (≥ 1) *)
  min_num : float;          (** numeric key range ([Ddouble] only) *)
  max_num : float;
}

val empty : t

(** B-tree size model: [(size_bytes, leaf_pages, levels)]. *)
val btree_shape : entries:int -> avg_key_bytes:float -> int * int * int

val derive : Xia_storage.Path_stats.t -> Index_def.t -> t

(** [derive] memoized per index logical key for the statistics object it
    was last derived from: a hit needs that very object, so statistics of
    another catalog (or a later RUNSTATS) are derived afresh.  A hit
    allocates nothing. *)
val derive_cached : Xia_storage.Path_stats.t -> Index_def.t -> t
