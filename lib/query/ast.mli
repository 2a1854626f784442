(** Workload statement AST: a FLWOR subset plus insert / delete / update. *)

module Xp = Xia_xpath.Ast

type source = {
  table : string;
  column : string;  (** informational column tag, e.g. TPoX's ['SDOC'] *)
  path : Xp.path;   (** absolute binding path, may contain predicates *)
}

type where_clause = {
  var : string;
  predicate : Xp.predicate;
}

(** One conjunct: a disjunction of simple clauses (singleton = plain
    predicate). *)
type where_group = where_clause list

type return_item =
  | Ret_var of string
  | Ret_path of string * Xp.path
  | Ret_element of string * return_item list

type flwor = {
  bindings : (string * source) list;
  where : where_group list;  (** conjunction of disjunctions *)
  return_ : return_item list;
}

type statement =
  | Select of flwor
  | Insert of { table : string; document : Xia_xml.Types.t }
  | Delete of { table : string; selector : Xp.path }
  | Update of {
      table : string;
      selector : Xp.path;
      target : Xp.path;
      new_value : string;
    }

val is_query : statement -> bool
val is_dml : statement -> bool

(** Primary table of the statement (first binding for queries). *)
val statement_table : statement -> string option

val tables : statement -> string list

(** Full-depth structural hash, consistent with structural equality:
    [compare a b = 0] implies [hash a = hash b].  Unlike [Hashtbl.hash] it
    reads the whole statement, so statements that differ only deep inside
    (a constant, the last step of a path) hash apart. *)
val hash : statement -> int
