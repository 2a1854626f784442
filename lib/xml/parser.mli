(** Non-validating XML parser: elements, attributes, text, entities, CDATA,
    comments, processing instructions and DOCTYPE (skipped). *)

val parse : string -> (Types.t, Scan.error) result

(** @raise Invalid_argument on malformed input. *)
val parse_exn : string -> Types.t

(** The document element at the cursor, with the comments, processing
    instructions and DOCTYPE around it; what follows is left to the caller.
    @raise Scan.Fail on malformed input. *)
val document : Scan.t -> Types.t
