(* Parser for workload statements, over the shared Scan cursor.

   Accepted forms (case-sensitive keywords, whitespace-insensitive):

     for $v in TABLE('COL')/path [, $w in ...]
       [where $v/rel CMP literal [and ...]]
       return ITEM [, ITEM]

     insert into TABLE <xml .../>
     delete from TABLE where /absolute/path[pred]
     update TABLE set /absolute/path = "value" where /absolute/path[pred]

   ITEM ::= $v | $v/rel | <tag>{ ITEM [, ITEM] }</tag>

   Embedded paths and documents are read by the XPath and XML parsers on the
   same cursor, so their errors point into the statement as they are. *)

module Scan = Xia_xml.Scan
module Xp = Xia_xpath.Ast
module Xp_parser = Xia_xpath.Parser

let is_word_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> true
  | _ -> false

let keyword st kw = Scan.keyword st ~fold:false is_word_char kw
let expect_keyword st kw = Scan.expect_keyword st ~fold:false is_word_char kw
let word st = Scan.word st is_word_char

let var st =
  Scan.token st "$";
  word st

let quoted st =
  Scan.skip_space st;
  match Scan.peek st with
  | Some ('"' | '\'') -> Scan.quoted st
  | _ -> Scan.fail st "expected a quoted string"

let absolute_path st =
  Scan.skip_space st;
  Xp_parser.absolute st

let source st =
  let table = word st in
  Scan.skip_space st;
  let column =
    if Scan.looking_at st "(" then begin
      Scan.advance st;
      let c = quoted st in
      Scan.token st ")";
      c
    end
    else "XMLDOC"
  in
  { Ast.table; column; path = absolute_path st }

let literal (st : Scan.t) =
  Scan.skip_space st;
  match Scan.peek st with
  | Some ('"' | '\'') -> Xp.String_lit (Scan.quoted st)
  | Some ('0' .. '9' | '-') -> (
      let start = st.pos in
      Scan.advance st;
      Scan.skip_while st (function '0' .. '9' | '.' -> true | _ -> false);
      match float_of_string_opt (String.sub st.input start (st.pos - start)) with
      | Some f -> Xp.Number_lit f
      | None -> Scan.fail st "invalid number")
  | _ -> Scan.fail st "expected a literal"

let where_clause st =
  let var = var st in
  Scan.skip_space st;
  let rel = if Scan.looking_at st "/" then (Scan.advance st; Xp_parser.relative st) else [] in
  Scan.skip_space st;
  match Xp_parser.comparison st with
  | None ->
      if rel = [] then Scan.fail st "a bare $var cannot be a where clause";
      { Ast.var; predicate = Xp.Exists rel }
  | Some cmp -> { Ast.var; predicate = Xp.Compare (rel, cmp, literal st) }

let rec return_item st =
  Scan.skip_space st;
  match Scan.peek st with
  | Some '$' ->
      let var = var st in
      if Scan.looking_at st "/" then begin
        Scan.advance st;
        Ast.Ret_path (var, Xp_parser.relative st)
      end
      else Ast.Ret_var var
  | Some '<' ->
      Scan.advance st;
      let tag = word st in
      Scan.token st ">";
      Scan.token st "{";
      let items = return_items st in
      Scan.token st "}";
      Scan.token st ("</" ^ tag ^ ">");
      Ast.Ret_element (tag, items)
  | _ -> Scan.fail st "expected a return item ($var, $var/path or an element constructor)"

and return_items st =
  let first = return_item st in
  let rec more acc =
    Scan.skip_space st;
    if Scan.looking_at st "," then begin
      Scan.advance st;
      more (return_item st :: acc)
    end
    else List.rev acc
  in
  more [ first ]

let flwor st =
  let rec bindings acc =
    let var = var st in
    expect_keyword st "in";
    let src = source st in
    Scan.skip_space st;
    if Scan.looking_at st "," then begin
      Scan.advance st;
      bindings ((var, src) :: acc)
    end
    else List.rev ((var, src) :: acc)
  in
  let bindings = bindings [] in
  let where =
    (* conjunction of disjunctions: OR binds tighter than AND *)
    if keyword st "where" then begin
      let rec disjuncts acc =
        let c = where_clause st in
        (match acc with
        | first :: _ when not (String.equal first.Ast.var c.Ast.var) ->
            Scan.fail st "all branches of an 'or' must constrain the same variable"
        | _ -> ());
        if keyword st "or" then disjuncts (c :: acc) else List.rev (c :: acc)
      in
      let rec groups acc =
        let g = disjuncts [] in
        if keyword st "and" then groups (g :: acc) else List.rev (g :: acc)
      in
      groups []
    end
    else []
  in
  expect_keyword st "return";
  let return_ = return_items st in
  { Ast.bindings; where; return_ }

let body st =
  if keyword st "for" then Ast.Select (flwor st)
  else if keyword st "insert" then begin
    expect_keyword st "into";
    let table = word st in
    Ast.Insert { table; document = Xia_xml.Parser.document st }
  end
  else if keyword st "delete" then begin
    expect_keyword st "from";
    let table = word st in
    expect_keyword st "where";
    Ast.Delete { table; selector = absolute_path st }
  end
  else if keyword st "update" then begin
    let table = word st in
    expect_keyword st "set";
    let target = absolute_path st in
    Scan.token st "=";
    let new_value = quoted st in
    expect_keyword st "where";
    Ast.Update { table; selector = absolute_path st; target; new_value }
  end
  else Scan.fail st "expected 'for', 'insert', 'delete' or 'update'"

let statement st =
  let s = body st in
  (* Allow a trailing semicolon. *)
  Scan.skip_space st;
  if Scan.looking_at st ";" then Scan.advance st;
  Scan.finish st;
  s

let parse_statement input = Scan.run input statement
let parse_statement_exn = Scan.unwrap parse_statement
