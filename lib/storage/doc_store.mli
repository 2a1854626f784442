(** A table of XML documents (one XML-typed column, as in DB2 pureXML). *)

type doc_id = int

(** One DML event.  Replacement is logged as delete + insert. *)
type change = {
  gen : int;
  kind : [ `Insert | `Delete ];
  doc_id : doc_id;
  doc : Xia_xml.Types.t;
}

type t

(** A stored document with its element count and serialized byte size
    ({!Xia_xml.Types.count_elements}, {!Xia_xml.Types.byte_size}), computed
    once on insert or replace. *)
type entry = private {
  doc : Xia_xml.Types.t;
  elements : int;
  bytes : int;
}

val create : string -> t

val name : t -> string

(** Monotone counter bumped by every DML operation; lets caches detect
    staleness. *)
val generation : t -> int

(** Changes after generation [gen], oldest first; [None] when the bounded
    change log has been truncated past that point (consumers must rebuild). *)
val changes_since : t -> int -> change list option

val doc_count : t -> int
val total_bytes : t -> int
val total_elements : t -> int

(** Number of storage pages occupied by the table. *)
val pages : t -> int

val insert : t -> Xia_xml.Types.t -> doc_id
val find : t -> doc_id -> Xia_xml.Types.t option
val find_entry : t -> doc_id -> entry option

(** [false] when the document does not exist. *)
val delete : t -> doc_id -> bool

(** Replace the document stored under an existing id. *)
val replace : t -> doc_id -> Xia_xml.Types.t -> bool

val iter : (doc_id -> Xia_xml.Types.t -> unit) -> t -> unit
val fold : (doc_id -> entry -> 'a -> 'a) -> t -> 'a -> 'a
val doc_ids : t -> doc_id list

val avg_doc_bytes : t -> float
val avg_doc_elements : t -> float
