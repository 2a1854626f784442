(** Query rewriting: expose the indexable access patterns of a statement —
    the role the paper delegates to DB2's rewrite and index-matching steps. *)

module Xp = Xia_xpath.Ast
module Pattern = Xia_xpath.Pattern
module Index_def = Xia_index.Index_def

type condition =
  | Cexists
  | Ccompare of Xp.cmp * Xp.literal

(** One indexable access: an absolute predicate-free pattern plus the
    condition it must satisfy and the index type able to serve it. *)
type access = {
  table : string;
  pattern : Pattern.t;
  condition : condition;
  dtype : Index_def.data_type;
}

val dtype_of_condition : condition -> Index_def.data_type

(** A disjunction of accesses; a singleton for plain predicates.  Index
    plans serve multi-access filters by index ORing. *)
type filter = access list

type binding_info = {
  var : string;
  source : Ast.source;
  nav_pattern : Pattern.t;  (** structural skeleton of the binding path *)
  filters : filter list;    (** conjunction of (disjunctions of) accesses *)
}

(** Per-binding navigation pattern and filters.  Delete/update selectors are
    treated as a binding (their document search is index-eligible); inserts
    expose nothing. *)
val bindings_of_statement : Ast.statement -> binding_info list

(** All filters of a statement, deduplicated. *)
val indexable_accesses : Ast.statement -> access list
