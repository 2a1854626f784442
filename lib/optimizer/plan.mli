(** Physical plans chosen by the optimizer. *)

module Index_def = Xia_index.Index_def
module Index_stats = Xia_index.Index_stats

type index_choice = {
  def : Index_def.t;
  stats : Index_stats.t;
  access : Xia_query.Rewriter.access;
  is_virtual : bool;
}

type binding_plan =
  | Doc_scan
  | Index_scan of index_choice
  | Index_and of index_choice list
  | Index_or of index_choice list

type planned_binding = {
  info : Xia_query.Rewriter.binding_info;
  plan : binding_plan;
  est_cost : float;
  est_docs : float;
}

type t = {
  statement : Xia_query.Ast.statement;
  bindings : planned_binding list;
  total_cost : float;
}

(** Distinct indexes appearing in the plan. *)
val indexes_used : t -> Index_def.t list

val pp_binding_plan : Format.formatter -> binding_plan -> unit
val pp : Format.formatter -> t -> unit
