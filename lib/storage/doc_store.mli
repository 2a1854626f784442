(** A table of XML documents (one XML-typed column, as in DB2 pureXML).
    Documents are stored packed ({!Xia_xml.Packed}) with the table's own
    label table; trees go in through {!insert} (or packed, through
    {!update}) and come back out, exactly, through {!find}.  Ids are dense
    and never reused: the documents sit in one array indexed by id, a
    deleted id leaving a hole, and every scan visits the live ids in
    ascending order. *)

type doc_id = int

type t

val create : string -> t

val name : t -> string

(** The label table every document of the store is packed with. *)
val labels : t -> Xia_xml.Packed.labels

(** Monotone counter bumped by every DML operation; lets caches detect
    staleness.  Each operation also stamps the id it wrote (inserted,
    updated or deleted) with the generation it produced. *)
val generation : t -> int

(** The ids written after generation [gen], in the order of their last
    write; a deleted id is among them and {!find_packed} no longer finds
    it. *)
val touched_since : t -> int -> doc_id list

val doc_count : t -> int
val total_bytes : t -> int
val total_elements : t -> int

(** Number of storage pages occupied by the table. *)
val pages : t -> int

(** @raise Invalid_argument if the root is a text node. *)
val insert : t -> Xia_xml.Types.t -> doc_id

(** The stored tree, unpacked: equal to the one inserted or updated. *)
val find : t -> doc_id -> Xia_xml.Types.t option

(** The stored document itself, one array read. *)
val find_packed : t -> doc_id -> Xia_xml.Packed.t option

(** [false] when the document does not exist. *)
val delete : t -> doc_id -> bool

(** Replace the document stored under an existing id ([false] when there
    is none) with one packed with {!labels}; like every write, it stamps
    the id with the new {!generation}.
    @raise Invalid_argument if it was packed with another label table. *)
val update : t -> doc_id -> Xia_xml.Packed.t -> bool

(** {!iter}, {!fold} and {!doc_ids} visit the live ids in ascending order,
    which is the order their documents were inserted in. *)
val iter : (doc_id -> Xia_xml.Packed.t -> unit) -> t -> unit

val fold : (doc_id -> Xia_xml.Packed.t -> 'a -> 'a) -> t -> 'a -> 'a
val doc_ids : t -> doc_id list
