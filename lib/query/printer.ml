(* Concrete syntax for workload statements; inverse of Parser. *)

module Xpp = Xia_xpath.Printer

let rec add_return buf = function
  | Ast.Ret_var v -> Buffer.add_string buf ("$" ^ v)
  | Ast.Ret_path (v, rel) ->
      Buffer.add_string buf ("$" ^ v ^ "/");
      Buffer.add_string buf (Xpp.relative_to_string rel)
  | Ast.Ret_element (tag, items) ->
      Buffer.add_string buf ("<" ^ tag ^ ">{");
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ", ";
          add_return buf item)
        items;
      Buffer.add_string buf ("}</" ^ tag ^ ">")

let add_where buf (w : Ast.where_clause) =
  Buffer.add_string buf ("$" ^ w.var);
  match w.predicate with
  | Xia_xpath.Ast.Exists rel ->
      Buffer.add_char buf '/';
      Buffer.add_string buf (Xpp.relative_to_string rel)
  | Xia_xpath.Ast.Compare (rel, cmp, lit) ->
      if rel <> [] then begin
        Buffer.add_char buf '/';
        Buffer.add_string buf (Xpp.relative_to_string rel)
      end;
      Buffer.add_string buf (" " ^ Xpp.cmp_to_string cmp ^ " ");
      Buffer.add_string buf (Xpp.literal_to_string lit)

let flwor_to_string (f : Ast.flwor) =
  let buf = Buffer.create 128 in
  List.iteri
    (fun i (v, (src : Ast.source)) ->
      Buffer.add_string buf (if i = 0 then "for " else ", ");
      Buffer.add_string buf
        (Printf.sprintf "$%s in %s('%s')%s" v src.table src.column
           (Xpp.path_to_string src.path)))
    f.bindings;
  if f.where <> [] then begin
    Buffer.add_string buf " where ";
    List.iteri
      (fun i group ->
        if i > 0 then Buffer.add_string buf " and ";
        List.iteri
          (fun j w ->
            if j > 0 then Buffer.add_string buf " or ";
            add_where buf w)
          group)
      f.where
  end;
  Buffer.add_string buf " return ";
  List.iteri
    (fun i item ->
      if i > 0 then Buffer.add_string buf ", ";
      add_return buf item)
    f.return_;
  Buffer.contents buf

let statement_to_string = function
  | Ast.Select f -> flwor_to_string f
  | Ast.Insert { table; document } ->
      Printf.sprintf "insert into %s %s" table (Xia_xml.Printer.to_string document)
  | Ast.Delete { table; selector } ->
      Printf.sprintf "delete from %s where %s" table (Xpp.path_to_string selector)
  | Ast.Update { table; selector; target; new_value } ->
      Printf.sprintf "update %s set %s = %S where %s" table
        (Xpp.path_to_string target) new_value
        (Xpp.path_to_string selector)
