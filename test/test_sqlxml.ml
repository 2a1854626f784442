(* Tests for the SQL/XML front end: both languages must produce identical
   statements (and therefore identical candidates). *)

module S = Xia_query.Sqlxml
module Q = Xia_query.Ast
module R = Xia_query.Rewriter

let tc name f = Alcotest.test_case name `Quick f

let parse = S.parse_statement_exn

let parser_tests =
  [
    tc "select star with xmlexists" (fun () ->
        match parse {|SELECT * FROM SECURITY WHERE XMLEXISTS('$d/Security[Symbol="X"]' PASSING SDOC AS "d")|} with
        | Q.Select { bindings = [ ("d", src) ]; where = []; return_ = [ Q.Ret_var "d" ] } ->
            Alcotest.(check string) "table" "SECURITY" src.Q.table;
            Alcotest.(check string) "column" "SDOC" src.Q.column;
            Alcotest.(check string) "path" {|/Security[Symbol="X"]|}
              (Xia_xpath.Printer.path_to_string src.Q.path)
        | _ -> Alcotest.fail "unexpected shape");
    tc "binding variable prefix optional" (fun () ->
        match parse {|SELECT * FROM T WHERE XMLEXISTS('/a[b>1]')|} with
        | Q.Select { bindings = [ (_, src) ]; _ } ->
            Alcotest.(check string) "path" "/a[b>1]"
              (Xia_xpath.Printer.path_to_string src.Q.path)
        | _ -> Alcotest.fail "unexpected shape");
    tc "keywords case-insensitive" (fun () ->
        ignore (parse {|select * from T where xmlexists('/a')|}));
    tc "xmlquery return path" (fun () ->
        match parse {|SELECT XMLQUERY('$d/Security/Name') FROM SECURITY WHERE XMLEXISTS('$d/Security[Yield>4.5]')|} with
        | Q.Select { return_ = [ Q.Ret_path ("d", rel) ]; _ } ->
            Alcotest.(check string) "rel" "Name" (Xia_xpath.Printer.relative_to_string rel)
        | _ -> Alcotest.fail "expected relative return");
    tc "insert with xmlparse" (fun () ->
        match parse {|INSERT INTO T VALUES (XMLPARSE('<a><b>1</b></a>'))|} with
        | Q.Insert { table = "T"; document } ->
            Alcotest.(check string) "doc" "<a><b>1</b></a>"
              (Xia_xml.Printer.to_string document)
        | _ -> Alcotest.fail "expected insert");
    tc "insert with bare string" (fun () ->
        match parse {|INSERT INTO T VALUES ('<a/>')|} with
        | Q.Insert _ -> ()
        | _ -> Alcotest.fail "expected insert");
    tc "sql string quote escaping" (fun () ->
        match parse {|SELECT * FROM T WHERE XMLEXISTS('/a[b="it''s"]')|} with
        | Q.Select { bindings = [ (_, src) ]; _ } ->
            Alcotest.(check string) "path" {|/a[b="it's"]|}
              (Xia_xpath.Printer.path_to_string src.Q.path)
        | _ -> Alcotest.fail "unexpected shape");
    tc "delete" (fun () ->
        match parse {|DELETE FROM T WHERE XMLEXISTS('/a[k="v"]')|} with
        | Q.Delete { table = "T"; selector } ->
            Alcotest.(check string) "sel" {|/a[k="v"]|}
              (Xia_xpath.Printer.path_to_string selector)
        | _ -> Alcotest.fail "expected delete");
    tc "update with xmlpath" (fun () ->
        match parse {|UPDATE T SET XMLPATH '/a/b' = '9' WHERE XMLEXISTS('/a[c=1]')|} with
        | Q.Update { target; new_value = "9"; _ } ->
            Alcotest.(check string) "target" "/a/b"
              (Xia_xpath.Printer.path_to_string target)
        | _ -> Alcotest.fail "expected update");
    tc "rejects garbage" (fun () ->
        Alcotest.(check bool) "err" true (Result.is_error (S.parse_statement "DROP TABLE x")));
    tc "xmlexists path errors point inside the literal" (fun () ->
        (match S.parse_statement {|SELECT * FROM T WHERE XMLEXISTS('/a[b=]')|} with
        | Ok _ -> Alcotest.fail "expected an error"
        | Error e -> Alcotest.(check (pair int int)) "at ]" (1, 39) (e.line, e.column));
        (* Each '' escape before the error counts as the two characters it is. *)
        match S.parse_statement {|SELECT * FROM T WHERE XMLEXISTS('/a[b=''x'' c]')|} with
        | Ok _ -> Alcotest.fail "expected an error"
        | Error e -> Alcotest.(check (pair int int)) "at c" (1, 45) (e.line, e.column));
    tc "rejects trailing content" (fun () ->
        Alcotest.(check bool) "err" true
          (Result.is_error (S.parse_statement {|SELECT * FROM T WHERE XMLEXISTS('/a') junk|})));
  ]

let equivalence_tests =
  [
    tc "paper Q1 in both languages exposes identical candidates" (fun () ->
        let xq =
          Helpers.statement
            {|for $sec in SECURITY('SDOC')/Security where $sec/Symbol = "BCIIPRC" return $sec|}
        in
        let sql =
          parse
            {|SELECT * FROM SECURITY WHERE XMLEXISTS('$d/Security[Symbol="BCIIPRC"]' PASSING SDOC AS "d")|}
        in
        let pats s =
          List.map
            (fun (t, p, d) ->
              (t, Xia_xpath.Pattern.to_string p, Xia_index.Index_def.data_type_to_string d))
            (Xia_optimizer.Optimizer.enumerate_indexes s)
        in
        Alcotest.(check (list (triple string string string))) "same candidates"
          (pats xq) (pats sql));
    tc "both languages get the same plan and cost" (fun () ->
        let catalog = Lazy.force Helpers.shared_catalog in
        let xq =
          Helpers.statement
            {|for $s in SECURITY('SDOC')/Security[Yield>4.5] return $s|}
        in
        let sql = parse {|SELECT * FROM SECURITY WHERE XMLEXISTS('$d/Security[Yield>4.5]')|} in
        let cost s = (Helpers.whatif_plan catalog s).Xia_optimizer.Plan.total_cost in
        Alcotest.(check (float 0.0001)) "same cost" (cost xq) (cost sql));
    tc "parse_any dispatches correctly" (fun () ->
        (match S.parse_any "for $x in T/a return $x" with
        | Ok (`Xquery _) -> ()
        | _ -> Alcotest.fail "expected xquery");
        (match S.parse_any {|SELECT * FROM T WHERE XMLEXISTS('/a')|} with
        | Ok (`Sqlxml _) -> ()
        | _ -> Alcotest.fail "expected sqlxml");
        (match S.parse_any "insert into T <a/>" with
        | Ok (`Xquery _) -> ()
        | _ -> Alcotest.fail "expected xquery insert");
        (match S.parse_any {|INSERT INTO T VALUES ('<a/>')|} with
        | Ok (`Sqlxml _) -> ()
        | _ -> Alcotest.fail "expected sqlxml insert"));
    tc "parse_any reports the grammar that got further" (fun () ->
        (* XQuery fails at the closing tag, SQL/XML already at the missing
           VALUES: the XML error is the one that explains the statement. *)
        match S.parse_located "insert into T <a><b></a>" with
        | Ok _ -> Alcotest.fail "expected an error"
        | Error e ->
            Alcotest.(check (pair int int)) "at </a>" (1, 23) (e.line, e.column);
            Alcotest.(check string) "message" "mismatched closing tag </a> for <b>" e.message);
  ]

let suites =
  [ ("sqlxml.parser", parser_tests); ("sqlxml.equivalence", equivalence_tests) ]
