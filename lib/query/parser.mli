(** Parser for workload statements (mini-XQuery FLWOR plus DML). *)

val parse_statement : string -> (Ast.statement, Xia_xml.Scan.error) result

(** @raise Invalid_argument on malformed input. *)
val parse_statement_exn : string -> Ast.statement

(** One whole statement from the cursor to the end of its input (an
    optional trailing [;] allowed).
    @raise Xia_xml.Scan.Fail on malformed input. *)
val statement : Xia_xml.Scan.t -> Ast.statement
