(** The cost model: prices in abstract cost units (only ratios matter) and
    every charge built from them.  The optimizer prices its estimates and
    the executor what it counted with the same formulas, so a virtual and a
    materialized index are costed alike; nothing else multiplies by a
    price.  Page and document counts are ints, sizes in bytes. *)

val page_size : int

val sequential_page_cost : float

(** The random page cost discounted by the buffer hit ratio. *)
val effective_random_page_cost : float

val cpu_per_node : float
val cpu_per_predicate : float
val cpu_per_index_entry : float
val cpu_per_result : float

val rid_bytes : int
val entry_overhead_bytes : int
val leaf_fill_factor : float
val key_prefix_compression : float

(** {1 The optimizer's estimates} *)

(** Pages of the average of [docs] documents of [bytes] bytes in all, at
    least one. *)
val avg_doc_pages : bytes:int -> docs:int -> float

(** Verifying one document: navigating its [elements] and evaluating
    [predicates] predicates plus the binding's own step. *)
val verify_cpu : elements:float -> predicates:int -> float

(** Reading a table of [pages] pages and verifying each of its [docs]
    documents at [verify]. *)
val doc_scan : pages:int -> docs:int -> verify:float -> float

(** Fetching a document of [pages] pages by random I/O and verifying it. *)
val fetch : pages:float -> verify:float -> float

(** Constructing the results of [docs] documents. *)
val result_cpu : float -> float

(** What an index lookup is expected to match. *)
type lookup_estimate = {
  entries_matched : float;  (** index entries satisfying the key condition *)
  docs_matched : float;     (** documents with at least one such entry *)
  total_entries : float;    (** size of the key population *)
}

(** An index scan before its fetches: the lookup (descent, leaf pages in
    proportion to the entries matched, their CPU), the documents it
    fetches, and the CPU of comparing their RIDs in an index AND. *)
type index_scan = {
  lookup : float;
  docs_fetched : float;
  rid_cpu : float;
}

(** The scan of a non-empty B-tree of [entries] entries. *)
val index_scan : levels:int -> leaf_pages:int -> entries:int -> lookup_estimate -> index_scan

(** Inserting a document: its page writes and its nodes' CPU. *)
val insert_cost : bytes:int -> elements:int -> float

(** Modifying one document: its page writes, [factor] times, and its nodes'
    CPU. *)
val modify_cost : pages:float -> elements:float -> factor:float -> float

(** {1 The executor's charges}

    In order: reading a table of so many pages, descending a B-tree of so
    many levels, scanning so many index entries, {!verify_cpu} of one
    document, and fetching and writing a document of so many bytes. *)

val table_scan_io : int -> float
val descent : int -> float
val probe_cpu : int -> float
val doc_verify_cpu : elements:int -> predicates:int -> float
val doc_fetch_io : int -> float
val doc_write_io : int -> float

(** {1 Index maintenance} *)

(** Maintaining the entries of [docs] modified documents, [entries_per_doc]
    each, in a B-tree of [levels] levels: each entry pays its update and a
    descend share of [levels] entry comparisons. *)
val upkeep : entries_per_doc:float -> docs:float -> levels:int -> float
