(** XML serialization. *)

(** Compact single-line serialization; inverse of {!Parser.parse} up to
    whitespace normalization. *)
val to_string : Types.t -> string
