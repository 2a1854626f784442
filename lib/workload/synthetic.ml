(* Synthetic workloads of random path queries, as used in the paper's
   Section VII-C: "we generated synthetic workloads consisting of random
   XPath path expressions that occur in the data".

   Each query picks a random dataguide path of a table and filters on it —
   with a numeric comparison when the path's values are numeric, a string
   equality otherwise.  A fraction of the queries degrade one inner step to a
   wildcard or a descendant axis, which is what gives the generalizer pairs
   with common sub-expressions. *)

module Path_stats = Xia_storage.Path_stats
module Xp = Xia_xpath.Ast

let step_of_component c =
  if String.length c > 0 && c.[0] = '@' then
    Xia_xpath.Ast.
      { axis = Child; test = Attr (Name (String.sub c 1 (String.length c - 1))); predicates = [] }
  else Xia_xpath.Ast.{ axis = Child; test = Elem (Name c); predicates = [] }

(* Randomly blur one middle step: name test to wildcard, or child axis to
   descendant. *)
let blur rng (steps : Xp.path) =
  let n = List.length steps in
  if n < 2 then steps
  else
    let target = Random.State.int rng (n - 1) in
    List.mapi
      (fun i (s : Xp.step) ->
        if i <> target then s
        else if Random.State.bool rng then
          match s.test with
          | Xp.Elem _ -> { s with test = Xp.Elem Xp.Wildcard }
          | Xp.Attr _ -> { s with test = Xp.Attr Xp.Wildcard }
        else { s with axis = Xp.Descendant })
      steps

let is_numeric_path (info : Path_stats.path_info) =
  info.node_count > 0
  && float_of_int info.numeric_count /. float_of_int info.node_count > 0.9

let predicate_for rng (info : Path_stats.path_info) =
  if is_numeric_path info && info.min_num <= info.max_num then begin
    let x = info.min_num +. Random.State.float rng (Float.max 1e-9 (info.max_num -. info.min_num)) in
    let cmp = if Random.State.bool rng then Xp.Gt else Xp.Lt in
    (cmp, Xp.Number_lit (Float.round (x *. 100.0) /. 100.0))
  end
  else (Xp.Eq, Xp.String_lit (Printf.sprintf "VAL%04d" (Random.State.int rng 10_000)))

(* Build one random query over a table: bind the root element and filter on a
   (possibly blurred) random leaf-ish path. *)
let random_query rng catalog table =
  let stats = Xia_index.Catalog.stats catalog table in
  (* Paths with steps below the document root element. *)
  let eligible =
    List.filter
      (fun info -> Path_stats.depth info >= 2)
      (Array.to_list stats.Path_stats.infos)
  in
  match eligible with
  | [] -> None
  | _ ->
      let info = List.nth eligible (Random.State.int rng (List.length eligible)) in
      let root, rel =
        (* lint: collected paths are never empty (root component always present) *)
        match Path_stats.path info with r :: rel -> (r, rel) | [] -> assert false
      in
      let rel_steps = blur rng (List.map step_of_component rel) in
      let cmp, lit = predicate_for rng info in
      let source =
        {
          Xia_query.Ast.table;
          column = "XMLDOC";
          path = [ Xia_xpath.Ast.{ axis = Child; test = Elem (Name root); predicates = [] } ];
        }
      in
      let flwor =
        {
          Xia_query.Ast.bindings = [ ("x", source) ];
          where = [ [ { Xia_query.Ast.var = "x"; predicate = Xp.Compare (rel_steps, cmp, lit) } ] ];
          return_ = [ Xia_query.Ast.Ret_var "x" ];
        }
      in
      Some (Xia_query.Ast.Select flwor)

(* [n] random queries spread round-robin over the given tables. *)
let workload ?(seed = 7) ?(label_prefix = "R") catalog tables n =
  let rng = Random.State.make [| seed |] in
  let tables = Array.of_list tables in
  let rec build i acc =
    if i >= n then List.rev acc
    else
      let table = tables.(i mod Array.length tables) in
      match random_query rng catalog table with
      | None -> build (i + 1) acc
      | Some stmt ->
          let it = Workload.item (Printf.sprintf "%s%d" label_prefix (i + 1)) stmt in
          build (i + 1) (it :: acc)
  in
  build 0 []

(* Skewed workload: a pool of [distinct] random templates, then [n]
   statements Zipf-sampled from it (template rank r drawn with probability
   proportional to 1/r^alpha).  This is what production query logs look like
   — a few hot templates dominating a long tail of rare ones — and it is the
   regime workload compression targets: the statement list is long, the
   distinct-signature set is short.  Duplicates are literal (same statement
   value, fresh label), so signature clustering collapses them exactly.
   Statement frequencies additionally carry the template's own base
   frequency skew: hot templates get freq 1.0, the tail keeps a decayed
   weight, exercising the weighted-cost path with non-uniform weights. *)
let skewed_workload ?(seed = 7) ?(alpha = 1.1) ?(label_prefix = "Z") ~distinct
    catalog tables n =
  let rng = Random.State.make [| seed |] in
  let pool =
    Array.of_list (workload ~seed:(seed + 1) ~label_prefix:"T" catalog tables distinct)
  in
  let k = Array.length pool in
  if k = 0 then []
  else begin
    (* Cumulative Zipf mass over ranks 1..k. *)
    let mass = Array.make k 0.0 in
    let total = ref 0.0 in
    Array.iteri
      (fun i _ ->
        total := !total +. (1.0 /. Float.pow (float_of_int (i + 1)) alpha);
        mass.(i) <- !total)
      mass;
    let pick () =
      let x = Random.State.float rng !total in
      let rec search lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if mass.(mid) < x then search (mid + 1) hi else search lo mid
      in
      search 0 (k - 1)
    in
    List.init n (fun i ->
        let r = pick () in
        let (template : Workload.item) = pool.(r) in
        let freq = 1.0 /. Float.pow (float_of_int (r + 1)) (alpha /. 4.0) in
        {
          Workload.label = Printf.sprintf "%s%d" label_prefix (i + 1);
          statement = template.Workload.statement;
          freq;
        })
  end
