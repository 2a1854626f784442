(** Concrete syntax for workload statements; inverse of {!Parser}. *)

val statement_to_string : Ast.statement -> string
val pp : Format.formatter -> Ast.statement -> unit
