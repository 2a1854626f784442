(** SQL/XML front end: a DB2-flavoured subset parsed into the same statement
    AST as the XQuery front end, so the advisor treats both languages
    identically (the paper's dual-language property).

    Supported forms (keywords case-insensitive):
    {v
    SELECT * FROM t WHERE XMLEXISTS('$d/path[pred]' PASSING col AS "d")
    SELECT XMLQUERY('$d/path2') FROM t WHERE XMLEXISTS('$d/path1' ...)
    INSERT INTO t VALUES (XMLPARSE('<doc.../>'))
    DELETE FROM t WHERE XMLEXISTS('$d/path[pred]' ...)
    UPDATE t SET XMLPATH '/a/b' = 'v' WHERE XMLEXISTS('$d/path[pred]' ...)
    v} *)

val parse_statement : string -> (Ast.statement, Xia_xml.Scan.error) result

(** @raise Invalid_argument on malformed input. *)
val parse_statement_exn : string -> Ast.statement

(** One whole statement in either language, tagging which grammar matched:
    SQL/XML when it starts with a SQL verb, mini-XQuery otherwise.  When
    both grammars reject an [insert into]/[delete from]/[update]
    statement, the failure that got further is raised.
    @raise Xia_xml.Scan.Fail on malformed input. *)
val any : Xia_xml.Scan.t -> [ `Xquery of Ast.statement | `Sqlxml of Ast.statement ]

(** {!any} over a whole string. *)
val parse_located :
  string -> ([ `Xquery of Ast.statement | `Sqlxml of Ast.statement ], Xia_xml.Scan.error) result

(** {!parse_located} with the error printed. *)
val parse_any :
  string -> ([ `Xquery of Ast.statement | `Sqlxml of Ast.statement ], string) result
