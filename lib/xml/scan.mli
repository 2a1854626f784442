(** One cursor over an input string, the lexing primitives the XML, XPath,
    XQuery and SQL/XML parsers share, and the one located error that every
    input reader reports.

    A parser advances a {!t} and calls {!fail} on bad input; {!run} turns
    the resulting {!Fail} into an {!error}.  Line and column are computed
    from the offset only then: scanning never tracks them. *)

type t = {
  input : string;
  mutable pos : int;  (** offset of the next unread character *)
}

(** [Fail (offset, message)], raised by {!fail}.  An embedded parse on the
    same cursor fails at an offset of the enclosing input, so nothing needs
    re-basing. *)
exception Fail of int * string

type error = {
  source : string;  (** file name or command-line option; [""] for a bare string *)
  line : int;  (** 1-based; [0] when no position applies *)
  column : int;  (** 1-based byte column within [line] *)
  message : string;
}

(** [source:line:col: message]; the position is left out when [line = 0]
    and the source when it is [""]. *)
val to_string : error -> string

(** [error source message]: an error about a whole input, with no position. *)
val error : string -> string -> error

(** [run input parse] applies [parse] to a cursor at the start of [input];
    a {!Fail} becomes an error located in [input], with source [""]. *)
val run : string -> (t -> 'a) -> ('a, error) result

(** [unwrap parse input] is [parse input]'s value.
    @raise Invalid_argument with the printed error otherwise, behind the
    quoted [input] when the error names no source. *)
val unwrap : (string -> ('a, error) result) -> string -> 'a

val fail : t -> string -> 'a

(** {1 Lexing}

    Dune's dev profile compiles with [-opaque], so a call into this module
    is never inlined: loops over many characters belong in the bulk
    primitives ({!skip_while}, {!take_while}, {!skip_past}), not in a
    caller's per-character {!peek}/{!advance}.  The bulk primitives still
    call their predicate per character, so a grammar that reads megabytes
    (the XML parser) scans [input] with loops of its own and moves [pos]. *)

val eof : t -> bool
val peek : t -> char option
val advance : t -> unit

(** Whether [s] starts at the cursor (no allocation). *)
val looking_at : t -> string -> bool

(** Consume [s] or fail ["expected s"]. *)
val expect : t -> string -> unit

(** {!expect} after optional spaces. *)
val token : t -> string -> unit

(** Move past the next occurrence of [s], or fail at the end of input. *)
val skip_past : t -> string -> unit

val is_space : char -> bool
val skip_space : t -> unit
val skip_while : t -> (char -> bool) -> unit
val take_while : t -> (char -> bool) -> string

(** [name st is_start is_char]: one [is_start] character, then any
    [is_char] ones; fails ["expected a name"]. *)
val name : t -> (char -> bool) -> (char -> bool) -> string

(** At a ['"'] or ['\''] quote: the characters up to the matching quote,
    which is consumed; fails ["unterminated string literal"]. *)
val quoted : t -> string

(** [word st is_word] skips spaces and reads a non-empty run of [is_word]
    characters; fails ["expected an identifier"]. *)
val word : t -> (char -> bool) -> string

(** [keyword st ~fold is_word kw] skips spaces and consumes [kw] when it is
    not followed by an [is_word] character.  With [fold], the input is
    matched case-insensitively against an upper-case [kw]. *)
val keyword : t -> fold:bool -> (char -> bool) -> string -> bool

(** {!keyword} or fail ["expected keyword kw"]. *)
val expect_keyword : t -> fold:bool -> (char -> bool) -> string -> unit

(** Skip trailing spaces; fail ["trailing characters"] unless at the end. *)
val finish : t -> unit
