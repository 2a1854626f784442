(** Analyzer findings: stable check ID + source location + message. *)

type t = {
  file : string;
  line : int;
  col : int;
  id : string;
  message : string;
}

val make : file:string -> line:int -> col:int -> id:string -> message:string -> t

(** Build a finding from a compiler-libs location (uses [loc_start]). *)
val of_location : id:string -> message:string -> Location.t -> t

(** Orders by file, then line, then column, then ID. *)
val compare : t -> t -> int

(** Render as [file:line [ID] message] — the tool's text output format. *)
val to_string : t -> string

(** Escape a string for embedding in a JSON string literal. *)
val json_escape : string -> string

(** One finding as a JSON object. *)
val to_json : t -> string
