(* Physical plans.

   Per query binding, the optimizer chooses among scanning the whole table,
   a single index scan serving one filter, or ANDing several index scans;
   residual filters are always verified on the fetched documents. *)

module Index_def = Xia_index.Index_def
module Index_stats = Xia_index.Index_stats

type index_choice = {
  def : Index_def.t;
  stats : Index_stats.t;
  access : Xia_query.Rewriter.access;  (* the filter this index serves *)
  is_virtual : bool;
}

type binding_plan =
  | Doc_scan
  | Index_scan of index_choice
  | Index_and of index_choice list  (* at least two, intersecting *)
  | Index_or of index_choice list   (* one per disjunct of an OR filter *)

type planned_binding = {
  info : Xia_query.Rewriter.binding_info;
  plan : binding_plan;
  est_cost : float;
  est_docs : float;  (* documents expected to satisfy every filter *)
}

type t = {
  statement : Xia_query.Ast.statement;
  bindings : planned_binding list;
  total_cost : float;
}

let indexes_used plan =
  let of_binding b =
    match b.plan with
    | Doc_scan -> []
    | Index_scan c -> [ c.def ]
    | Index_and cs | Index_or cs -> List.map (fun c -> c.def) cs
  in
  let all = List.concat_map of_binding plan.bindings in
  let seen = Hashtbl.create 8 in
  List.filter
    (fun (d : Index_def.t) ->
      let k = d.lid in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    all

let pp_binding_plan ppf = function
  | Doc_scan -> Fmt.string ppf "DOCSCAN"
  | Index_scan c ->
      Fmt.pf ppf "IXSCAN(%s%s on %a)" (Index_def.name c.def)
        (if c.is_virtual then "*" else "")
        Xia_xpath.Pattern.pp c.def.Index_def.pattern
  | Index_and cs ->
      Fmt.pf ppf "IXAND(%a)"
        (Fmt.list ~sep:(Fmt.any ", ") (fun ppf c ->
             Fmt.pf ppf "%s%s" (Index_def.name c.def) (if c.is_virtual then "*" else "")))
        cs
  | Index_or cs ->
      Fmt.pf ppf "IXOR(%a)"
        (Fmt.list ~sep:(Fmt.any ", ") (fun ppf c ->
             Fmt.pf ppf "%s%s" (Index_def.name c.def) (if c.is_virtual then "*" else "")))
        cs

let pp ppf plan =
  Fmt.pf ppf "cost=%.1f" plan.total_cost;
  List.iter
    (fun b ->
      Fmt.pf ppf "@ [$%s: %a, est_docs=%.1f, cost=%.1f]" b.info.Xia_query.Rewriter.var
        pp_binding_plan b.plan b.est_docs b.est_cost)
    plan.bindings
