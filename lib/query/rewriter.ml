(* Query rewriting: expose the indexable access patterns of a statement.

   This plays the role of the DB2 rewrite + index-matching machinery the
   paper couples to: predicates buried in binding paths and where clauses are
   composed with their anchoring paths into absolute, predicate-free linear
   patterns, each with the comparison it supports and the SQL type an index
   must have to serve it.  In the running example, Q1's

     for $sec in SECURITY('SDOC')/Security where $sec/Symbol = "BCIIPRC" ...

   exposes the access (/Security/Symbol, =, VARCHAR) — candidate C1, "only
   exposed by query rewrites". *)

module Xp = Xia_xpath.Ast
module Pattern = Xia_xpath.Pattern
module Index_def = Xia_index.Index_def

type condition =
  | Cexists
  | Ccompare of Xp.cmp * Xp.literal

let pp_condition ppf = function
  | Cexists -> Fmt.string ppf "[exists]"
  | Ccompare (cmp, lit) ->
      Fmt.pf ppf "%s %s"
        (Xia_xpath.Printer.cmp_to_string cmp)
        (Xia_xpath.Printer.literal_to_string lit)

type access = {
  table : string;
  pattern : Pattern.t;
  condition : condition;
  dtype : Index_def.data_type;
}

let dtype_of_condition = function
  | Cexists -> Index_def.Dstring
  | Ccompare (_, Xp.String_lit _) -> Index_def.Dstring
  | Ccompare (_, Xp.Number_lit _) -> Index_def.Ddouble

let access ~table pattern condition =
  { table; pattern; condition; dtype = dtype_of_condition condition }

(* Collect accesses from the predicates of a path.  [prefix] is the pattern
   of the steps leading to (and including) the step carrying the predicate;
   predicates may nest, so we recurse into their relative paths. *)
let rec accesses_in_path ~table prefix (path : Xp.path) =
  match path with
  | [] -> []
  | step :: rest ->
      let prefix = prefix @ [ { Pattern.axis = step.Xp.axis; test = step.Xp.test } ] in
      let here =
        List.concat_map (accesses_in_predicate ~table prefix) step.Xp.predicates
      in
      here @ accesses_in_path ~table prefix rest

and accesses_in_predicate ~table prefix = function
  | Xp.Exists rel ->
      access ~table (prefix @ Pattern.of_path rel) Cexists
      :: accesses_in_path ~table prefix rel
  | Xp.Compare (rel, cmp, lit) ->
      access ~table (prefix @ Pattern.of_path rel) (Ccompare (cmp, lit))
      :: accesses_in_path ~table prefix rel

(* A filter constrains the binding; it is a disjunction of accesses (a
   singleton for plain predicates, several for "a = 1 or b = 2").  An index
   plan can serve a multi-access filter only by ORing an index per access. *)
type filter = access list

type binding_info = {
  var : string;
  source : Ast.source;
  nav_pattern : Pattern.t;  (* structural skeleton of the binding path *)
  filters : filter list;    (* conjunction of (disjunctions of) accesses *)
}

let clause_access ~table nav (w : Ast.where_clause) =
  match w.predicate with
  | Xp.Exists rel -> access ~table (nav @ Pattern.of_path rel) Cexists
  | Xp.Compare (rel, cmp, lit) ->
      access ~table (nav @ Pattern.of_path rel) (Ccompare (cmp, lit))

let clause_nested ~table nav (w : Ast.where_clause) =
  match w.predicate with
  | Xp.Exists rel | Xp.Compare (rel, _, _) -> accesses_in_path ~table nav rel

let binding_filters (var, (src : Ast.source)) (where : Ast.where_group list) =
  let nav = Pattern.of_path src.path in
  let table = src.table in
  let from_path =
    List.map (fun a -> [ a ]) (accesses_in_path ~table [] src.path)
  in
  let from_where =
    List.concat_map
      (fun (group : Ast.where_group) ->
        match group with
        | [] -> []
        | first :: _ when not (String.equal first.Ast.var var) -> []
        | [ w ] ->
            (* singleton: the access plus its nested predicate accesses, each
               its own conjunctive filter *)
            [ clause_access ~table nav w ]
            :: List.map (fun a -> [ a ]) (clause_nested ~table nav w)
        | disjuncts ->
            (* OR group: one filter with an access per branch; nested
               predicate accesses of a branch are dropped (they only hold on
               that branch, so they cannot be conjunctive filters) *)
            [ List.map (clause_access ~table nav) disjuncts ])
      where
  in
  { var; source = src; nav_pattern = nav; filters = from_path @ from_where }

let selector_binding ~table selector =
  let src = { Ast.table; column = "XMLDOC"; path = selector } in
  binding_filters ("__selector", src) []

let bindings_of_statement = function
  | Ast.Select f -> List.map (fun b -> binding_filters b f.where) f.bindings
  | Ast.Insert _ -> []
  | Ast.Delete { table; selector } -> [ selector_binding ~table selector ]
  | Ast.Update { table; selector; _ } -> [ selector_binding ~table selector ]

let dedup_accesses accesses =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun a ->
      let key =
        Fmt.str "%s|%s|%a|%s" a.table (Pattern.key a.pattern) pp_condition a.condition
          (Index_def.data_type_to_string a.dtype)
      in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    accesses

let indexable_accesses stmt =
  dedup_accesses
    (List.concat_map
       (fun b -> List.concat b.filters)
       (bindings_of_statement stmt))
