(** Candidate indexes and the candidate DAG.

    Basic candidates come from the optimizer's Enumerate Indexes mode;
    general candidates from the generalization algorithm, which also records
    DAG edges (a general candidate is the parent of the candidates it was
    generalized from).  The affected set of a candidate is the set of
    workload statement indices whose basic patterns it covers. *)

module Index_def = Xia_index.Index_def
module Index_stats = Xia_index.Index_stats
module Int_set : Set.S with type elt = int

type origin =
  | Basic
  | General

type t = {
  id : int;
  def : Index_def.t;
  origin : origin;
  mutable parents : Int_set.t;
  mutable children : Int_set.t;
  mutable affected : Int_set.t;
}

type set

val create_set : unit -> set

val find : set -> int -> t option

(** The candidate with the definition's logical identity, if any. *)
val find_def : set -> Index_def.t -> t option

(** @raise Invalid_argument on unknown ids. *)
val get : set -> int -> t

(** Add (or retrieve) a candidate by logical identity. *)
val add : set -> origin:origin -> Index_def.t -> t

(** Record that [parent] generalizes [child]. *)
val add_edge : parent:t -> child:t -> unit

val mark_affected : t -> int -> unit

(** The affected set as a sorted array of statement indices. *)
val affected_array : t -> int array

(** Do two sorted arrays (as from {!affected_array}) share an element?
    Allocates nothing. *)
val overlap : int array -> int array -> bool

(** All candidates in id order; {!basics}, {!generals} and {!roots} keep
    that order too. *)
val to_list : set -> t list

val basics : set -> t list
val generals : set -> t list
val cardinality : set -> int

(** DAG roots: candidates with no parents. *)
val roots : set -> t list

val children_of : set -> t -> t list
val parents_of : set -> t -> t list
val is_general : t -> bool

(** Derived (virtual) statistics of the candidate. *)
val stats : Xia_index.Catalog.t -> t -> Index_stats.t

(** Estimated on-disk size in bytes. *)
val size : Xia_index.Catalog.t -> t -> int

val config_size : Xia_index.Catalog.t -> t list -> int

(** Fill in the affected sets of general candidates from the basic ones. *)
val compute_affected : set -> unit

val pp : Format.formatter -> t -> unit
