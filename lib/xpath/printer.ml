(* Rendering of XPath ASTs back to their concrete syntax. *)

let axis_to_string = function
  | Ast.Child -> "/"
  | Ast.Descendant -> "//"

let name_test_to_string = function
  | Ast.Name s -> s
  | Ast.Wildcard -> "*"

let node_test_to_string = function
  | Ast.Elem nt -> name_test_to_string nt
  | Ast.Attr nt -> "@" ^ name_test_to_string nt

let cmp_to_string = function
  | Ast.Eq -> "="
  | Ast.Ne -> "!="
  | Ast.Lt -> "<"
  | Ast.Le -> "<="
  | Ast.Gt -> ">"
  | Ast.Ge -> ">="

let literal_to_string = function
  | Ast.String_lit s -> Printf.sprintf "%S" s
  | Ast.Number_lit f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        string_of_int (int_of_float f)
      else string_of_float f

let rec add_path buf ~absolute path =
  List.iteri
    (fun i (s : Ast.step) ->
      if i > 0 || absolute then Buffer.add_string buf (axis_to_string s.axis)
      else if s.axis = Ast.Descendant then Buffer.add_string buf "//";
      Buffer.add_string buf (node_test_to_string s.test);
      List.iter (add_predicate buf) s.predicates)
    path

and add_predicate buf pred =
  Buffer.add_char buf '[';
  (match pred with
  | Ast.Exists rel -> add_rel_or_self buf rel
  | Ast.Compare (rel, cmp, lit) ->
      add_rel_or_self buf rel;
      Buffer.add_string buf (cmp_to_string cmp);
      Buffer.add_string buf (literal_to_string lit));
  Buffer.add_char buf ']'

and add_rel_or_self buf = function
  | [] -> Buffer.add_char buf '.'
  | rel -> add_path buf ~absolute:false rel

let path_to_string path =
  let buf = Buffer.create 32 in
  add_path buf ~absolute:true path;
  Buffer.contents buf

let relative_to_string path =
  let buf = Buffer.create 32 in
  add_path buf ~absolute:false path;
  Buffer.contents buf
