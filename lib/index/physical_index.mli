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

(** Store generation the entries reflect, set by {!build} and {!refresh};
    a differing store generation means the index is stale. *)
val built_generation : t -> int

(** Key a value would get in an index of this type; [None] when a [Ddouble]
    index rejects a non-numeric value. *)
val key_of_value : Index_def.data_type -> string -> key option

val build : Doc_store.t -> Index_def.t -> t

(** Entry-comparison order used by the index (key, then doc, then node). *)
val compare_entry : entry -> entry -> int

(** [refresh store pi] equals [build store (def pi)], but walks only the
    documents written since {!built_generation} ({!Doc_store.touched_since})
    and sorts only their entries.  [refresh store] looks them up once for
    consecutive indexes of one build generation it is applied to. *)
val refresh : Doc_store.t -> t -> t

val lookup_eq : t -> key -> entry list

type bound =
  | Unbounded
  | Inclusive of key
  | Exclusive of key

val lookup_range : t -> lo:bound -> hi:bound -> entry list
val lookup_ne : t -> key -> entry list
val all : t -> entry list

(** Size under the same B-tree layout model as virtual indexes. *)
val size_bytes : t -> int
