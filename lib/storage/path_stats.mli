(** Per-path data statistics for a table — the RUNSTATS equivalent.

    One {!path_info} per distinct rooted label path in the data (attribute
    components spelled ["@name"]). *)

type path_info = {
  path : string list;
  path_key : string;  (** components joined with ["/"] *)
  mutable node_count : int;
  mutable doc_count : int;  (** documents containing the path *)
  mutable distinct_values : int;
  mutable total_value_bytes : int;
  mutable numeric_count : int;  (** nodes whose value parses as a number *)
  mutable distinct_numeric : int;
  mutable min_num : float;
  mutable max_num : float;
  mutable histogram : Histogram.t option;
      (** numeric value histogram from a bounded sample; [None] when the path
          has no (or a single) numeric value *)
}

(** Label trie over the dataguide, built at collection time; immutable. *)
type trie

type t = {
  table : string;
  generation : int;  (** store generation at collection time *)
  doc_count : int;
  total_elements : int;
  total_bytes : int;
  ordered : path_info list;
  infos : path_info array;  (** [ordered] as an array (same order) *)
  trie : trie;
  matching_memo : path_info list Xia_xpath.Interner.Dense.t;
      (** pattern id → covered paths; shared, read-mostly *)
}

val path_key : string list -> string

(** Scan the whole table and collect statistics (RUNSTATS). *)
val collect : Doc_store.t -> t

val find : t -> string list -> path_info option
val iter : (path_info -> unit) -> t -> unit
val fold : ('a -> path_info -> 'a) -> t -> 'a -> 'a
val path_count : t -> int
val all_paths : t -> string list list

(** Dataguide paths covered by an index pattern, in [ordered] order: a
    single trie walk advancing the pattern's NFA state set once per shared
    label prefix.  Memoized per pattern id (shared across domains). *)
val matching : t -> Xia_xpath.Pattern.t -> path_info list

(** {!matching} by interned pattern id ({!Xia_xpath.Pattern.id}): a hit
    allocates nothing. *)
val matching_id : t -> int -> path_info list

val avg_value_bytes : path_info -> float
