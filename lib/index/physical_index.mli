(** Materialized partial XML index: sorted (key, doc, node) entries for every
    node covered by the pattern.  Used only for actual execution — the advisor
    itself works with virtual indexes. *)

module Doc_store = Xia_storage.Doc_store

type key =
  | Kstring of string
  | Kdouble of float

val compare_key : key -> key -> int

type entry = {
  key : key;
  doc : Doc_store.doc_id;
  node : Xia_xml.Types.node_id;
}

type t

val def : t -> Index_def.t
val entry_count : t -> int

(** Store generation at build time; a differing store generation means the
    index is stale. *)
val built_generation : t -> int

(** Key a value would get in an index of this type; [None] when a [Ddouble]
    index rejects a non-numeric value. *)
val key_of_value : Index_def.data_type -> string -> key option

val build : Doc_store.t -> Index_def.t -> t

(** Entry-comparison order used by the index (key, then doc, then node). *)
val compare_entry : entry -> entry -> int

(** Fold a change list into the index without rescanning the table; the
    result reports [generation] as its build generation. *)
val apply_changes : t -> generation:int -> Doc_store.change list -> t

val lookup_eq : t -> key -> entry list

type bound =
  | Unbounded
  | Inclusive of key
  | Exclusive of key

val lookup_range : t -> lo:bound -> hi:bound -> entry list
val lookup_ne : t -> key -> entry list
val all : t -> entry list
val iter : (entry -> unit) -> t -> unit

(** Size under the same B-tree layout model as virtual indexes. *)
val size_bytes : t -> int

val distinct_doc_count : entry list -> int
