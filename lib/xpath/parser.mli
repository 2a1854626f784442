(** Parser for the XPath subset of {!Ast}.

    Examples of accepted absolute paths:
    ["/Security/Yield"], ["/Security//*"], ["//Yield"],
    ["/Security\[Yield>4.5\]/Name"], ["/Order/@ID"],
    ["/Security\[SecInfo/*/Sector=\"Energy\"\]"]. *)

(** Parse an absolute path (starting with [/] or [//]). *)
val parse : string -> (Ast.path, Xia_xml.Scan.error) result

(** Parse a relative path (as used inside predicates), e.g. ["SecInfo/*/Sector"].
    A leading [/] is also accepted and means a child step. *)
val parse_relative_path : string -> (Ast.path, Xia_xml.Scan.error) result

(** @raise Invalid_argument on malformed input. *)
val parse_exn : string -> Ast.path

(** @raise Invalid_argument on malformed input. *)
val parse_relative_exn : string -> Ast.path

(** {1 On a cursor}

    For statements that embed paths: each reads greedily from the cursor
    and leaves it on the first character it does not consume.
    @raise Xia_xml.Scan.Fail on malformed input. *)

val absolute : Xia_xml.Scan.t -> Ast.path
val relative : Xia_xml.Scan.t -> Ast.path

(** An optional comparison operator. *)
val comparison : Xia_xml.Scan.t -> Ast.cmp option
