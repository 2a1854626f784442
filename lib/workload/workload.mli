(** Workloads: statements with occurrence frequencies. *)

type item = {
  label : string;
  statement : Xia_query.Ast.statement;
  freq : float;
}

type t = item list

val item : ?freq:float -> string -> Xia_query.Ast.statement -> item

val of_statements : Xia_query.Ast.statement list -> t

(** Read a workload file (['#'] comments, blank lines, ["freq|statement"]
    lines; statements may be mini-XQuery or SQL/XML).  Items are labelled
    [S1..Sn] in file order; lines with the same statement text share one
    parsed statement.  [Error] names the file, and the line and column of
    the first statement that does not parse or frequency that is negative
    or not finite; or the file itself when it cannot be read. *)
val read : string -> (t, Xia_xml.Scan.error) result

(** {!read}. @raise Invalid_argument with the printed error. *)
val of_file : string -> t

(** Parse one statement per string. @raise Invalid_argument on parse errors. *)
val of_strings : string list -> t

val size : t -> int

(** First [n] items (training prefix). *)
val prefix : int -> t -> t

val labels : t -> string list
val find_opt : t -> string -> item option

val pp : Format.formatter -> t -> unit
