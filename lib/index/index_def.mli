(** Logical definition of a partial XML index: table + index pattern + SQL
    data type of the keys (DB2's [GENERATE KEY USING XMLPATTERN ... AS ...]).

    A [Ddouble] index stores only the nodes whose value parses as a number; a
    [Dstring] index stores every matched node's string value. *)

type data_type =
  | Dstring
  | Ddouble

val data_type_to_string : data_type -> string
val pp_data_type : Format.formatter -> data_type -> unit
val equal_data_type : data_type -> data_type -> bool

(** Built only by {!make}, so the two ids always agree with the pattern,
    table and type. *)
type t = private {
  serial : int;  (** number of a generated name; [0] when [given] *)
  given : string option;  (** the [name] passed to {!make} *)
  table : string;
  pattern : Xia_xpath.Pattern.t;
  dtype : data_type;
  pid : int;  (** [Xia_xpath.Pattern.id pattern] *)
  lid : int;  (** {!logical_id} *)
}

(** Create a definition.  Without [name] it draws the next serial of a
    process-wide counter, from which {!name} formats a unique name.
    Interns the pattern id and the logical id once; formats no string. *)
val make :
  ?name:string ->
  table:string ->
  pattern:Xia_xpath.Pattern.t ->
  dtype:data_type ->
  unit ->
  t

(** The given name, or [IDX<serial>_<table>_<S|D>_<pattern>] with every
    non-alphanumeric character of the pattern written as [_].  Formatted on
    each call. *)
val name : t -> string

(** Logical identity: same table, pattern and type (names ignored); equal
    logical ids. *)
val same : t -> t -> bool

(** Canonical key of the logical identity. *)
val logical_key : t -> string

(** Interned int id of the logical identity: equal iff {!logical_key} is
    equal (iff {!same}).  Interned by {!make}, so this is a field read.
    Stable within a run only — identity (fingerprints, cache keys), never
    user-visible order. *)
val logical_id : t -> int

(** [key_id ~table ~dtype ~pid]: the logical id of an index on exactly this
    table, type and pattern id ([Xia_xpath.Pattern.id]), interned on first
    sight.  The optimizer keys an indexable access by it.  A hit allocates
    nothing. *)
val key_id : table:string -> dtype:data_type -> pid:int -> int

(** A total order on logical identities (table, then type, then the
    pattern's structure), independent of interning history and
    allocation-free; not {!logical_key}'s string order. *)
val compare_logical : t -> t -> int

(** [covers ~general ~specific]: the general index can serve every lookup of
    the specific one (same table/type, containing pattern). *)
val covers : general:t -> specific:t -> bool

(** [covers_id ~general id]: {!covers} against the logical identity [id]
    ({!logical_id} or {!key_id}), read from the interned ids.  Allocates
    nothing. *)
val covers_id : general:t -> int -> bool

val pp : Format.formatter -> t -> unit
