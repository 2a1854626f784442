(** Rendering XPath ASTs back to concrete syntax; inverse of {!Parser}. *)

val axis_to_string : Ast.axis -> string
val node_test_to_string : Ast.node_test -> string
val cmp_to_string : Ast.cmp -> string
val literal_to_string : Ast.literal -> string

(** Absolute form, leading [/] or [//]. *)
val path_to_string : Ast.path -> string

(** Relative form: no leading slash for a child first step. *)
val relative_to_string : Ast.path -> string
