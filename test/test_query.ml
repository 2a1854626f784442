(* Tests for the query AST, parser, printer and rewriter. *)

module Q = Xia_query.Ast
module QP = Xia_query.Parser
module QPr = Xia_query.Printer
module R = Xia_query.Rewriter
module D = Xia_index.Index_def

let tc name f = Alcotest.test_case name `Quick f

let roundtrip s = QPr.statement_to_string (Helpers.statement s)

let parser_tests =
  [
    tc "minimal flwor" (fun () ->
        Alcotest.(check string) "rt" "for $x in T('XMLDOC')/a return $x"
          (roundtrip "for $x in T/a return $x"));
    tc "paper Q1" (fun () ->
        Alcotest.(check string) "rt"
          {|for $sec in SECURITY('SDOC')/Security where $sec/Symbol = "BCIIPRC" return $sec|}
          (roundtrip
             {|for $sec in SECURITY('SDOC')/Security where $sec/Symbol = "BCIIPRC" return $sec|}));
    tc "paper Q2 with constructor" (fun () ->
        Alcotest.(check string) "rt"
          {|for $sec in SECURITY('SDOC')/Security[Yield>4.5] where $sec/SecInfo/*/Sector = "Energy" return <Security>{$sec/Name}</Security>|}
          (roundtrip
             {|for $sec in SECURITY('SDOC')/Security[Yield>4.5]
               where $sec/SecInfo/*/Sector = "Energy"
               return <Security>{$sec/Name}</Security>|}));
    tc "multiple bindings" (fun () ->
        match Helpers.statement "for $a in T/x, $b in U/y return $a, $b" with
        | Q.Select f ->
            Alcotest.(check int) "bindings" 2 (List.length f.Q.bindings);
            Alcotest.(check int) "returns" 2 (List.length f.Q.return_)
        | _ -> Alcotest.fail "expected select");
    tc "conjunctive where" (fun () ->
        match Helpers.statement {|for $c in T/c where $c/a = 1 and $c/b = "x" return $c|} with
        | Q.Select f -> Alcotest.(check int) "wheres" 2 (List.length f.Q.where)
        | _ -> Alcotest.fail "expected select");
    tc "where existence clause" (fun () ->
        match Helpers.statement "for $c in T/c where $c/opt return $c" with
        | Q.Select { where = [ [ { predicate = Xia_xpath.Ast.Exists _; _ } ] ]; _ } -> ()
        | _ -> Alcotest.fail "expected existence where");
    tc "attribute where" (fun () ->
        Alcotest.(check string) "rt" "for $o in T('XMLDOC')/o where $o/@id = 7 return $o"
          (roundtrip "for $o in T/o where $o/@id = 7 return $o"));
    tc "insert statement" (fun () ->
        match Helpers.statement "insert into T <a><b>1</b></a>" with
        | Q.Insert { table; document } ->
            Alcotest.(check string) "table" "T" table;
            Alcotest.(check string) "doc" "<a><b>1</b></a>"
              (Xia_xml.Printer.to_string document)
        | _ -> Alcotest.fail "expected insert");
    tc "delete statement" (fun () ->
        Alcotest.(check string) "rt" {|delete from T where /a[b="x"]|}
          (roundtrip {|delete from T where /a[b="x"]|}));
    tc "update statement" (fun () ->
        Alcotest.(check string) "rt" {|update T set /a/b = "9" where /a[c=1]|}
          (roundtrip {|update T set /a/b = "9" where /a[c=1]|}));
    tc "trailing semicolon accepted" (fun () ->
        ignore (Helpers.statement "for $x in T/a return $x;"));
    tc "nested constructor items" (fun () ->
        match Helpers.statement "for $x in T/a return <r>{$x/b, $x/c}</r>" with
        | Q.Select { return_ = [ Q.Ret_element ("r", items) ]; _ } ->
            Alcotest.(check int) "items" 2 (List.length items)
        | _ -> Alcotest.fail "expected element return");
    tc "rejects missing return" (fun () ->
        Alcotest.(check bool) "err" true
          (Result.is_error (QP.parse_statement "for $x in T/a")));
    tc "rejects unknown verb" (fun () ->
        Alcotest.(check bool) "err" true (Result.is_error (QP.parse_statement "select 1")));
    tc "rejects trailing garbage" (fun () ->
        Alcotest.(check bool) "err" true
          (Result.is_error (QP.parse_statement "for $x in T/a return $x garbage")));
    tc "rejects bad xml in insert" (fun () ->
        Alcotest.(check bool) "err" true
          (Result.is_error (QP.parse_statement "insert into T <a><b></a>")));
    tc "statement metadata" (fun () ->
        let s = Helpers.statement "for $x in T/a return $x" in
        Alcotest.(check bool) "not dml" false (Q.is_dml s);
        let d = Helpers.statement "delete from U where /a" in
        Alcotest.(check bool) "dml" true (Q.is_dml d);
        Alcotest.(check (list string)) "tables" [ "U" ] (Q.tables d));
  ]

(* The paper's Table I: the basic candidates of Q1 and Q2. *)
let table_one_tests =
  [
    tc "Q1 exposes C1 (/Security/Symbol, string)" (fun () ->
        let q1 =
          Helpers.statement
            {|for $sec in SECURITY('SDOC')/Security where $sec/Symbol = "BCIIPRC" return $sec|}
        in
        match Xia_optimizer.Optimizer.enumerate_indexes q1 with
        | [ (table, pattern, dtype) ] ->
            Alcotest.(check string) "table" "SECURITY" table;
            Alcotest.(check string) "pattern" "/Security/Symbol"
              (Xia_xpath.Pattern.to_string pattern);
            Alcotest.(check bool) "string" true (dtype = D.Dstring)
        | l -> Alcotest.failf "expected exactly C1, got %d" (List.length l));
    tc "Q2 exposes C2 and C3" (fun () ->
        let q2 =
          Helpers.statement
            {|for $sec in SECURITY('SDOC')/Security[Yield>4.5]
              where $sec/SecInfo/*/Sector = "Energy"
              return <Security>{$sec/Name}</Security>|}
        in
        let pats =
          List.map
            (fun (_, p, d) -> (Xia_xpath.Pattern.to_string p, D.data_type_to_string d))
            (Xia_optimizer.Optimizer.enumerate_indexes q2)
        in
        Alcotest.(check bool) "C3 yield numeric" true
          (List.mem ("/Security/Yield", "DOUBLE") pats);
        Alcotest.(check bool) "C2 sector string" true
          (List.mem ("/Security/SecInfo/*/Sector", "VARCHAR") pats);
        Alcotest.(check int) "exactly two" 2 (List.length pats));
  ]

let rewriter_tests =
  [
    tc "nav pattern strips predicates" (fun () ->
        let s = Helpers.statement "for $x in T/a[b>1]/c return $x" in
        match R.bindings_of_statement s with
        | [ b ] ->
            Alcotest.(check string) "nav" "/a/c"
              (Xia_xpath.Pattern.to_string b.R.nav_pattern)
        | _ -> Alcotest.fail "expected one binding");
    tc "nested predicates contribute accesses" (fun () ->
        let s = Helpers.statement "for $x in T/a[b[c>1]/d] return $x" in
        let pats =
          List.map (fun a -> Xia_xpath.Pattern.to_string a.R.pattern) (R.indexable_accesses s)
        in
        Alcotest.(check bool) "outer exists" true (List.mem "/a/b/d" pats);
        Alcotest.(check bool) "inner compare" true (List.mem "/a/b/c" pats));
    tc "existence where yields Cexists" (fun () ->
        let s = Helpers.statement "for $x in T/a where $x/opt return $x" in
        match R.indexable_accesses s with
        | [ a ] ->
            Alcotest.(check bool) "exists" true (a.R.condition = R.Cexists);
            Alcotest.(check bool) "string type" true (a.R.dtype = D.Dstring)
        | _ -> Alcotest.fail "expected one access");
    tc "numeric literal gives DOUBLE type" (fun () ->
        let s = Helpers.statement "for $x in T/a where $x/v > 3 return $x" in
        match R.indexable_accesses s with
        | [ a ] -> Alcotest.(check bool) "double" true (a.R.dtype = D.Ddouble)
        | _ -> Alcotest.fail "expected one access");
    tc "delete selector is indexable" (fun () ->
        let s = Helpers.statement {|delete from T where /a[k="v"]|} in
        match R.indexable_accesses s with
        | [ a ] ->
            Alcotest.(check string) "pattern" "/a/k" (Xia_xpath.Pattern.to_string a.R.pattern)
        | _ -> Alcotest.fail "expected one access");
    tc "update selector is indexable, target is not" (fun () ->
        let s = Helpers.statement {|update T set /a/b = "1" where /a[c=2]|} in
        let pats =
          List.map (fun a -> Xia_xpath.Pattern.to_string a.R.pattern) (R.indexable_accesses s)
        in
        Alcotest.(check (list string)) "only selector" [ "/a/c" ] pats);
    tc "insert exposes nothing" (fun () ->
        let s = Helpers.statement "insert into T <a/>" in
        Alcotest.(check int) "none" 0 (List.length (R.indexable_accesses s)));
    tc "duplicate accesses deduplicated" (fun () ->
        let s =
          Helpers.statement {|for $x in T/a where $x/k = "v" and $x/k = "v" return $x|}
        in
        Alcotest.(check int) "one" 1 (List.length (R.indexable_accesses s)));
    tc "where clause for unknown var ignored" (fun () ->
        let s = Helpers.statement {|for $x in T/a where $y/k = "v" return $x|} in
        Alcotest.(check int) "none" 0 (List.length (R.indexable_accesses s)));
    tc "multi-binding accesses attach to their binding" (fun () ->
        let s =
          Helpers.statement
            {|for $a in T/x, $b in U/y where $a/p = 1 and $b/q = 2 return $a|}
        in
        match R.bindings_of_statement s with
        | [ ba; bb ] ->
            Alcotest.(check int) "a filters" 1 (List.length ba.R.filters);
            Alcotest.(check int) "b filters" 1 (List.length bb.R.filters);
            Alcotest.(check string) "a table" "T"
              (match ba.R.filters with [ [ a ] ] -> a.R.table | _ -> "?")
        | _ -> Alcotest.fail "expected two bindings");
    tc "dtype_of_condition" (fun () ->
        Alcotest.(check bool) "exists" true (R.dtype_of_condition R.Cexists = D.Dstring);
        Alcotest.(check bool) "num" true
          (R.dtype_of_condition (R.Ccompare (Xia_xpath.Ast.Eq, Xia_xpath.Ast.Number_lit 1.0))
          = D.Ddouble));
  ]

let suites =
  [
    ("query.parser", parser_tests);
    ("query.table1", table_one_tests);
    ("query.rewriter", rewriter_tests);
  ]
