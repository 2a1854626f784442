(* Workload statement AST: a FLWOR subset plus insert/delete/update.

   This models the XQuery shapes the paper's TPoX workload uses:

     for $sec in SECURITY('SDOC')/Security[Yield>4.5]
     where $sec/SecInfo/*/Sector = "Energy"
     return <Security>{$sec/Name}</Security>

   Variables bind to nodes reached by an absolute path over one table; where
   clauses constrain a variable through a relative path; return clauses
   extract relative paths (possibly wrapped in element constructors, which we
   record for faithful printing but which carry no optimization weight). *)

module Xp = Xia_xpath.Ast

type source = {
  table : string;
  column : string;  (* informational: TPoX's SECURITY('SDOC') argument *)
  path : Xp.path;   (* absolute, may contain predicates *)
}

type where_clause = {
  var : string;
  predicate : Xp.predicate;  (* relative path + optional comparison *)
}

(* One conjunct of the where clause: a disjunction of simple clauses.  The
   common case is a singleton ("$x/a = 1"); multiple entries mean OR
   ("$x/a = 1 or $x/b = 2"), which index plans serve by index ORing. *)
type where_group = where_clause list

type return_item =
  | Ret_var of string                     (* $v *)
  | Ret_path of string * Xp.path          (* $v/rel *)
  | Ret_element of string * return_item list  (* <tag>{...}</tag> *)

type flwor = {
  bindings : (string * source) list;
  where : where_group list;  (* conjunction of disjunctions *)
  return_ : return_item list;
}

type statement =
  | Select of flwor
  | Insert of { table : string; document : Xia_xml.Types.t }
  | Delete of { table : string; selector : Xp.path }
      (* delete every document in which the selector matches *)
  | Update of {
      table : string;
      selector : Xp.path;  (* documents to update *)
      target : Xp.path;    (* nodes to modify within each document *)
      new_value : string;
    }

let is_query = function
  | Select _ -> true
  | Insert _ | Delete _ | Update _ -> false

let is_dml s = not (is_query s)

let statement_table = function
  | Select f -> (
      match f.bindings with
      | (_, src) :: _ -> Some src.table
      | [] -> None)
  | Insert { table; _ } | Delete { table; _ } | Update { table; _ } -> Some table

(* All tables a statement touches. *)
let tables = function
  | Select f -> List.sort_uniq String.compare (List.map (fun (_, s) -> s.table) f.bindings)
  | Insert { table; _ } | Delete { table; _ } | Update { table; _ } -> [ table ]

(* Full-depth structural hash: every node and leaf of the statement feeds
   it, so [compare a b = 0] implies [hash a = hash b].  [Hashtbl.hash] stops
   after ten meaningful words, which leaves every template over one table
   in the same bucket.  Numbers go through [Hashtbl.hash], which maps -0.0
   and 0.0, and every NaN, to one value. *)
let mix h x = (h lxor x) * 0x100000001b3

let mix_string h s = mix h (String.hash s)

let hash_list f h l = List.fold_left f (mix h (List.length l)) l

let hash_name h = function
  | Xp.Name s -> mix_string (mix h 1) s
  | Xp.Wildcard -> mix h 2

let hash_test h = function
  | Xp.Elem n -> hash_name (mix h 1) n
  | Xp.Attr n -> hash_name (mix h 2) n

let hash_literal h = function
  | Xp.String_lit s -> mix_string (mix h 1) s
  | Xp.Number_lit f -> mix (mix h 2) (Hashtbl.hash f)

let cmp_tag = function
  | Xp.Eq -> 0 | Xp.Ne -> 1 | Xp.Lt -> 2 | Xp.Le -> 3 | Xp.Gt -> 4 | Xp.Ge -> 5

let rec hash_step h (st : Xp.step) =
  let h = mix h (match st.axis with Xp.Child -> 1 | Xp.Descendant -> 2) in
  hash_list hash_predicate (hash_test h st.test) st.predicates

and hash_predicate h = function
  | Xp.Exists steps -> hash_list hash_step (mix h 1) steps
  | Xp.Compare (steps, cmp, lit) ->
      hash_literal (mix (hash_list hash_step (mix h 2) steps) (cmp_tag cmp)) lit

let hash_path = hash_list hash_step

let rec hash_return h = function
  | Ret_var v -> mix_string (mix h 1) v
  | Ret_path (v, p) -> hash_path (mix_string (mix h 2) v) p
  | Ret_element (tag, items) -> hash_list hash_return (mix_string (mix h 3) tag) items

let hash_attr h (k, v) = mix_string (mix_string h k) v

let rec hash_xml h = function
  | Xia_xml.Types.Text s -> mix_string (mix h 1) s
  | Xia_xml.Types.Element e ->
      hash_list hash_xml (hash_list hash_attr (mix_string (mix h 2) e.tag) e.attrs) e.children

let hash_binding h (v, src) =
  hash_path (mix_string (mix_string (mix_string h v) src.table) src.column) src.path

let hash_clause h (c : where_clause) = hash_predicate (mix_string h c.var) c.predicate

let hash_group h group = hash_list hash_clause h group

let hash stmt =
  let h =
    match stmt with
    | Select f ->
        let h = hash_list hash_binding 1 f.bindings in
        let h = hash_list hash_group h f.where in
        hash_list hash_return h f.return_
    | Insert { table; document } -> hash_xml (mix_string 2 table) document
    | Delete { table; selector } -> hash_path (mix_string 3 table) selector
    | Update { table; selector; target; new_value } ->
        mix_string (hash_path (hash_path (mix_string 4 table) selector) target) new_value
  in
  h land max_int
