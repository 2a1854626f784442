(** Per-path data statistics for a table — the RUNSTATS equivalent.

    One {!path_info} per distinct rooted label path in the data (attribute
    components spelled ["@name"]).  The entries are the nodes of the
    dataguide trie: a path is its parent's path extended by one label.
    Both records are private: only {!collect} writes statistics. *)

type path_info = private {
  parent : path_info option;  (** [None] for a root element's path *)
  label : int;  (** the last component, interned ({!Xia_xpath.Interner.label}) *)
  mutable index : int;  (** position in {!t.infos}; set by {!collect} *)
  mutable children : path_info array;
      (** the paths one label longer, sorted by label; set by {!collect} *)
  mutable node_count : int;
  mutable doc_count : int;  (** documents containing the path *)
  mutable distinct_values : int;
  mutable total_value_bytes : int;
  mutable numeric_count : int;  (** nodes whose value parses as a number *)
  mutable distinct_numeric : int;
  mutable min_num : float;
  mutable max_num : float;
  mutable histogram : Histogram.t option;
      (** numeric value histogram from a sample of at most 4,096 of the
          path's numbers, uniform whatever the order the documents are
          scanned in (reservoir sampling, Algorithm R); [None] when the
          path has no (or a single) numeric value *)
}

type t = private {
  table : string;
  generation : int;  (** store generation at collection time *)
  doc_count : int;
  total_elements : int;
  total_bytes : int;
  roots : path_info array;  (** the root elements' paths, sorted by label *)
  infos : path_info array;
      (** every path, the trie in preorder with siblings sorted by label:
          lexicographic order of the label lists *)
  matching_memo : path_info list Xia_xpath.Interner.Dense.t;
      (** pattern id → covered paths; shared, read-mostly *)
}

(** The path's labels, root first, rebuilt from the parent chain. *)
val path : path_info -> string list

(** {!path} joined with ["/"]. *)
val key : path_info -> string

(** The number of labels in {!path}. *)
val depth : path_info -> int

(** Scan the whole table and collect statistics (RUNSTATS). *)
val collect : Doc_store.t -> t

val iter : (path_info -> unit) -> t -> unit
val fold : ('a -> path_info -> 'a) -> t -> 'a -> 'a
val path_count : t -> int

(** Dataguide paths covered by an index pattern, in [infos] order: a
    single trie walk advancing the pattern's NFA state set once per shared
    label prefix.  Memoized per pattern id. *)
val matching : t -> Xia_xpath.Pattern.t -> path_info list

(** {!matching} by interned pattern id ({!Xia_xpath.Pattern.id}): a hit
    allocates nothing. *)
val matching_id : t -> int -> path_info list
