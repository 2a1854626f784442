(* SQL/XML front end.

   The paper stresses that the advisor supports "both XQuery and SQL/XML
   simply by virtue of the fact that the DB2 query optimizer supports both of
   these languages" — the advisor works on whatever the optimizer can parse
   and match.  This module gives the reproduction the same property: a
   DB2-flavoured SQL/XML subset is parsed into the same statement AST the
   XQuery front end produces, so enumeration, costing and search are
   identical for both languages.

   Supported subset (keywords case-insensitive):

     SELECT * FROM t WHERE XMLEXISTS('$d/path[pred]' [PASSING col AS "d"])
     SELECT XMLQUERY('$d/path2') FROM t WHERE XMLEXISTS('$d/path1' ...)
     INSERT INTO t VALUES (XMLPARSE('<doc.../>'))
     INSERT INTO t VALUES ('<doc.../>')
     DELETE FROM t WHERE XMLEXISTS('$d/path[pred]' ...)
     UPDATE t SET XMLPATH '/a/b' = 'v' WHERE XMLEXISTS('$d/path[pred]' ...)

   The XMLEXISTS argument is an absolute path over the document; the binding
   variable prefix ("$d/") is optional.  The PASSING clause is accepted and
   recorded as the column name. *)

module Scan = Xia_xml.Scan

let is_word_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
  | _ -> false

(* Case-insensitive keywords. *)
let keyword st kw = Scan.keyword st ~fold:true is_word_char kw
let expect_keyword st kw = Scan.expect_keyword st ~fold:true is_word_char kw
let word st = Scan.word st is_word_char

(* SQL single-quoted string with '' escaping: the offset of its first
   character and its decoded text. *)
let sql_string (st : Scan.t) =
  Scan.token st "'";
  let start = st.pos in
  let buf = Buffer.create 32 in
  let rec loop () =
    Buffer.add_string buf (Scan.take_while st (fun c -> c <> '\''));
    if Scan.eof st then Scan.fail st "unterminated string literal";
    Scan.advance st;
    if Scan.looking_at st "'" then (Buffer.add_char buf '\''; Scan.advance st; loop ())
  in
  loop ();
  (start, Buffer.contents buf)

(* Run [parse] over the decoded text of a literal read by [sql_string]; a
   failure at the k-th decoded character is re-raised at that character of
   the literal in [st], where each '' stands for one quote. *)
let inside_literal (st : Scan.t) (start, text) parse =
  try parse { Scan.input = text; pos = 0 }
  with Scan.Fail (k, message) ->
    let rec raw i k = if k = 0 then i else raw (i + if st.input.[i] = '\'' then 2 else 1) (k - 1) in
    raise (Scan.Fail (raw start k, message))

(* An XMLEXISTS/XMLQUERY/XMLPATH argument: an absolute path, optionally
   behind a "$var" binding prefix. *)
let inner_path st literal =
  inside_literal st literal (fun c ->
      Scan.skip_space c;
      if Scan.looking_at c "$" then
        Option.iter (fun i -> c.pos <- i) (String.index_from_opt c.input c.pos '/');
      let path = Xia_xpath.Parser.absolute c in
      Scan.finish c;
      path)

(* [PASSING col [AS "var" | AS var]]: the column, if present. *)
let passing st =
  if keyword st "PASSING" then begin
    let col = word st in
    if keyword st "AS" then begin
      Scan.skip_space st;
      if Scan.looking_at st "\"" then (Scan.advance st; ignore (word st); Scan.token st "\"")
      else ignore (word st)
    end;
    Some col
  end
  else None

(* XMLEXISTS('path' [PASSING col AS "d"]); returns (path, column). *)
let xmlexists st =
  expect_keyword st "XMLEXISTS";
  Scan.token st "(";
  let path = inner_path st (sql_string st) in
  let column = Option.value (passing st) ~default:"XMLDOC" in
  Scan.token st ")";
  (path, column)

(* Derive the relative return path of XMLQUERY('$d/p2') against the
   XMLEXISTS binding path: if p2 extends the binding's first step, the rest
   becomes a relative return path. *)
let return_of_xmlquery binding_path q_path =
  match binding_path, q_path with
  | b0 :: _, q0 :: (_ :: _ as rest)
    when Xia_xpath.Ast.equal_node_test b0.Xia_xpath.Ast.test q0.Xia_xpath.Ast.test ->
      Ast.Ret_path ("d", rest)
  | _ -> Ast.Ret_var "d"

let body st =
  if keyword st "SELECT" then begin
    let xmlquery =
      if keyword st "XMLQUERY" then begin
        Scan.token st "(";
        let literal = sql_string st in
        (* tolerate a PASSING clause inside XMLQUERY too *)
        ignore (passing st);
        Scan.token st ")";
        Some literal
      end
      else (Scan.token st "*"; None)
    in
    expect_keyword st "FROM";
    let table = word st in
    expect_keyword st "WHERE";
    let path, column = xmlexists st in
    let return_ =
      match xmlquery with
      | None -> [ Ast.Ret_var "d" ]
      | Some literal -> [ return_of_xmlquery path (inner_path st literal) ]
    in
    Ast.Select { bindings = [ ("d", { Ast.table; column; path }) ]; where = []; return_ }
  end
  else if keyword st "INSERT" then begin
    expect_keyword st "INTO";
    let table = word st in
    expect_keyword st "VALUES";
    Scan.token st "(";
    let literal =
      if keyword st "XMLPARSE" then begin
        Scan.token st "(";
        let l = sql_string st in
        Scan.token st ")";
        l
      end
      else sql_string st
    in
    Scan.token st ")";
    let document =
      inside_literal st literal (fun c ->
          let d = Xia_xml.Parser.document c in
          Scan.finish c;
          d)
    in
    Ast.Insert { table; document }
  end
  else if keyword st "DELETE" then begin
    expect_keyword st "FROM";
    let table = word st in
    expect_keyword st "WHERE";
    Ast.Delete { table; selector = fst (xmlexists st) }
  end
  else if keyword st "UPDATE" then begin
    let table = word st in
    expect_keyword st "SET";
    expect_keyword st "XMLPATH";
    let target = inner_path st (sql_string st) in
    Scan.token st "=";
    let new_value = snd (sql_string st) in
    expect_keyword st "WHERE";
    Ast.Update { table; selector = fst (xmlexists st); target; new_value }
  end
  else Scan.fail st "expected SELECT, INSERT, DELETE or UPDATE"

let statement st =
  let s = body st in
  Scan.skip_space st;
  if Scan.looking_at st ";" then Scan.advance st;
  Scan.finish st;
  s

let parse_statement input = Scan.run input statement
let parse_statement_exn = Scan.unwrap parse_statement

(* Either language: SQL/XML when the statement starts with a SQL verb,
   mini-XQuery otherwise.  "insert into"/"delete from"/"update" exist in
   both grammars; the XQuery front end is tried first for them, the SQL/XML
   one on failure, and when both fail the error that got further wins. *)
let any (st : Scan.t) =
  let start = st.pos in
  (* A SQL verb as a prefix, in any case. *)
  let sql =
    List.exists
      (fun kw -> Scan.keyword st ~fold:true (fun _ -> false) kw)
      [ "SELECT"; "DELETE FROM"; "UPDATE "; "INSERT INTO" ]
  in
  st.pos <- start;
  if not sql then `Xquery (Parser.statement st)
  else
    try `Xquery (Parser.statement st)
    with Scan.Fail (xq_at, _) as xq -> (
      st.pos <- start;
      try `Sqlxml (statement st)
      with Scan.Fail (sql_at, _) when xq_at > sql_at -> raise xq)

let parse_located input = Scan.run input any
let parse_any input = Result.map_error Scan.to_string (parse_located input)
