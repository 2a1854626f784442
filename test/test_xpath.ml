(* Tests for the XPath AST, parser, printer and evaluator. *)

module A = Xia_xpath.Ast
module P = Xia_xpath.Parser
module Pr = Xia_xpath.Printer
module E = Xia_xpath.Eval

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

let roundtrip s = Pr.path_to_string (Helpers.xpath s)

let parser_tests =
  [
    tc "simple path" (fun () ->
        check Alcotest.string "rt" "/Security/Yield" (roundtrip "/Security/Yield"));
    tc "descendant axis" (fun () ->
        check Alcotest.string "rt" "//Yield" (roundtrip "//Yield"));
    tc "mixed axes" (fun () ->
        check Alcotest.string "rt" "/a//b/c" (roundtrip "/a//b/c"));
    tc "wildcard" (fun () ->
        check Alcotest.string "rt" "/Security/SecInfo/*/Sector"
          (roundtrip "/Security/SecInfo/*/Sector"));
    tc "attribute step" (fun () ->
        check Alcotest.string "rt" "/Order/@ID" (roundtrip "/Order/@ID"));
    tc "attribute wildcard" (fun () ->
        check Alcotest.string "rt" "/Order/@*" (roundtrip "/Order/@*"));
    tc "descendant wildcard" (fun () ->
        check Alcotest.string "rt" "/Security//*" (roundtrip "/Security//*"));
    tc "numeric predicate" (fun () ->
        check Alcotest.string "rt" "/Security[Yield>4.5]" (roundtrip "/Security[Yield>4.5]"));
    tc "string predicate" (fun () ->
        check Alcotest.string "rt" {|/Security[Symbol="BCIIPRC"]|}
          (roundtrip {|/Security[Symbol="BCIIPRC"]|}));
    tc "single-quoted literal" (fun () ->
        check Alcotest.string "rt" {|/a[b="x"]|} (roundtrip "/a[b='x']"));
    tc "existence predicate" (fun () ->
        check Alcotest.string "rt" "/a[b/c]" (roundtrip "/a[b/c]"));
    tc "self comparison" (fun () ->
        check Alcotest.string "rt" "/a/b[.>=3]" (roundtrip "/a/b[. >= 3]"));
    tc "relative path in predicate" (fun () ->
        check Alcotest.string "rt" {|/Security[SecInfo/*/Sector="Energy"]/Name|}
          (roundtrip {|/Security[SecInfo/*/Sector="Energy"]/Name|}));
    tc "multiple predicates on one step" (fun () ->
        check Alcotest.string "rt" "/a[b][c>1]" (roundtrip "/a[b][c > 1]"));
    tc "negative number literal" (fun () ->
        check Alcotest.string "rt" "/a[b<-2.5]" (roundtrip "/a[b < -2.5]"));
    tc "not-equal operator" (fun () ->
        check Alcotest.string "rt" {|/a[b!="x"]|} (roundtrip {|/a[b != "x"]|}));
    tc "all comparison operators" (fun () ->
        List.iter
          (fun op -> ignore (Helpers.xpath (Printf.sprintf "/a[b%s1]" op)))
          [ "="; "!="; "<"; "<="; ">"; ">=" ]);
    tc "relative parse" (fun () ->
        let p = P.parse_relative_exn "SecInfo/*/Sector" in
        check Alcotest.string "rt" "SecInfo/*/Sector" (Pr.relative_to_string p));
    tc "relative with descendant" (fun () ->
        let p = P.parse_relative_exn "a//b" in
        check Alcotest.string "rt" "a//b" (Pr.relative_to_string p));
    tc "prefix parsing stops at foreign char" (fun () ->
        let st = { Xia_xml.Scan.input = "/a/b = 3"; pos = 0 } in
        let p = P.absolute st in
        check Alcotest.string "path" "/a/b" (Pr.path_to_string p);
        check Alcotest.int "pos" 4 st.pos);
    tc "rejects empty" (fun () ->
        Alcotest.(check bool) "err" true (Result.is_error (P.parse "")));
    tc "rejects relative in absolute position" (fun () ->
        Alcotest.(check bool) "err" true (Result.is_error (P.parse "a/b")));
    tc "rejects unterminated predicate" (fun () ->
        Alcotest.(check bool) "err" true (Result.is_error (P.parse "/a[b")));
    tc "rejects trailing slash" (fun () ->
        Alcotest.(check bool) "err" true (Result.is_error (P.parse "/a/")));
  ]

let ast_tests =
  [
    tc "has_predicates sees predicates on any step" (fun () ->
        Alcotest.(check bool) "has preds" true (A.has_predicates (Helpers.xpath {|/a/c[d="x"]|}));
        Alcotest.(check bool) "no preds" false (A.has_predicates (Helpers.xpath "/a/c")));
    tc "literal_matches numeric coercion" (fun () ->
        Alcotest.(check bool) "gt" true (A.literal_matches "4.7" A.Gt (A.Number_lit 4.5));
        Alcotest.(check bool) "not gt" false (A.literal_matches "4.2" A.Gt (A.Number_lit 4.5));
        Alcotest.(check bool) "trim" true (A.literal_matches " 42 " A.Eq (A.Number_lit 42.0));
        Alcotest.(check bool) "non-numeric" false
          (A.literal_matches "abc" A.Gt (A.Number_lit 0.0)));
    tc "literal_matches string compare" (fun () ->
        Alcotest.(check bool) "eq" true (A.literal_matches "Energy" A.Eq (A.String_lit "Energy"));
        Alcotest.(check bool) "lt" true (A.literal_matches "Apple" A.Lt (A.String_lit "Banana")));
    tc "equal_path distinguishes axes" (fun () ->
        Alcotest.(check bool) "neq" false
          (A.equal_path (Helpers.xpath "/a/b") (Helpers.xpath "/a//b")));
  ]

let eval_on doc path = Helpers.eval_tree (Helpers.xml doc) (Helpers.xpath path)

(* Ranks of the elements a path reaches in a tree's packed form. *)
let elements_of doc path =
  let p = Helpers.packed doc in
  E.elements (E.path p.labels path) p

(* Does the predicate hold on the element ranked [r] of a tree? *)
let holds_on doc r pred =
  let p = Helpers.packed doc in
  E.holds p r (E.predicate p.labels pred)

let values matches = List.map (fun (m : E.match_) -> m.E.value) matches

let eval_tests =
  [
    tc "root match" (fun () ->
        Alcotest.(check int) "n" 1 (List.length (eval_on "<a>x</a>" "/a")));
    tc "root mismatch" (fun () ->
        Alcotest.(check int) "n" 0 (List.length (eval_on "<a>x</a>" "/b")));
    tc "child navigation" (fun () ->
        check (Alcotest.list Alcotest.string) "vals" [ "1"; "2" ]
          (values (eval_on "<a><b>1</b><b>2</b><c>3</c></a>" "/a/b")));
    tc "descendant finds deep nodes" (fun () ->
        check (Alcotest.list Alcotest.string) "vals" [ "1"; "2" ]
          (values (eval_on "<a><b>1</b><c><b>2</b></c></a>" "//b")));
    tc "descendant of root includes root" (fun () ->
        Alcotest.(check int) "n" 1 (List.length (eval_on "<a>x</a>" "//a")));
    tc "wildcard step" (fun () ->
        check (Alcotest.list Alcotest.string) "vals" [ "1"; "2" ]
          (values (eval_on "<a><b><s>1</s></b><c><s>2</s></c></a>" "/a/*/s")));
    tc "attribute step" (fun () ->
        check (Alcotest.list Alcotest.string) "vals" [ "7" ]
          (values (eval_on {|<a id="7"><b id="8"/></a>|} "/a/@id")));
    tc "descendant attribute includes self" (fun () ->
        check (Alcotest.list Alcotest.string) "vals" [ "7"; "8" ]
          (values (eval_on {|<a id="7"><b id="8"/></a>|} "//@id")));
    tc "attribute wildcard" (fun () ->
        check (Alcotest.list Alcotest.string) "vals" [ "1"; "2" ]
          (values (eval_on {|<a x="1" y="2"/>|} "/a/@*")));
    tc "no navigation through attributes" (fun () ->
        Alcotest.(check int) "n" 0 (List.length (eval_on {|<a id="7"/>|} "/a/@id/b")));
    tc "numeric predicate filters" (fun () ->
        check (Alcotest.list Alcotest.string) "vals" [ "5" ]
          (values (eval_on "<r><a><v>5</v></a><a><v>3</v></a></r>" "/r/a[v>4]/v")));
    tc "string predicate filters" (fun () ->
        Alcotest.(check int) "n" 1
          (List.length (eval_on "<r><a><s>x</s></a><a><s>y</s></a></r>" {|/r/a[s="x"]|})));
    tc "existence predicate" (fun () ->
        Alcotest.(check int) "n" 1
          (List.length (eval_on "<r><a><b/></a><a/></r>" "/r/a[b]")));
    tc "self-comparison predicate" (fun () ->
        check (Alcotest.list Alcotest.string) "vals" [ "9" ]
          (values (eval_on "<r><v>9</v><v>2</v></r>" "/r/v[.>5]")));
    tc "paper example Q2 pattern" (fun () ->
        check (Alcotest.list Alcotest.string) "vals" [ "Energy" ]
          (values
             (Helpers.eval_tree Helpers.security_doc
                (Helpers.xpath "/Security[Yield>4.5]/SecInfo/*/Sector"))));
    tc "predicate on mid path with descendant" (fun () ->
        Alcotest.(check int) "n" 1
          (List.length
             (eval_on "<r><a><k>1</k><deep><t/></deep></a><a><k>0</k></a></r>"
                "/r/a[k=1]//t")));
    tc "duplicates removed under //" (fun () ->
        (* Both /r/a and /r//a reach the same node exactly once. *)
        Alcotest.(check int) "n" 1
          (List.length (eval_on "<r><a><a/></a></r>" "/r/a/a")));
    tc "document order maintained" (fun () ->
        check (Alcotest.list Alcotest.string) "vals" [ "1"; "2"; "3" ]
          (values (eval_on "<r><x>1</x><y><x>2</x></y><x>3</x></r>" "//x")));
    tc "eval_elements drops attributes" (fun () ->
        let doc = Helpers.xml {|<a id="1"><b/></a>|} in
        Alcotest.(check int) "n" 0 (List.length (elements_of doc (Helpers.xpath "/a/@id")));
        check (Alcotest.list Alcotest.int) "pre" [ 1 ] (elements_of doc (Helpers.xpath "/a/b")));
    tc "eval_relative" (fun () ->
        (* A relative path is evaluated from a context node by a predicate. *)
        let root = Helpers.security_doc in
        let rel = P.parse_relative_exn "SecInfo/*/Sector" in
        Alcotest.(check bool) "Energy" true
          (holds_on root 0 (A.Compare (rel, A.Eq, A.String_lit "Energy")));
        Alcotest.(check bool) "not Tech" false
          (holds_on root 0 (A.Compare (rel, A.Eq, A.String_lit "Tech")));
        Alcotest.(check bool) "exists" true (holds_on root 0 (A.Exists rel)));
    tc "predicate_holds_on" (fun () ->
        let pred =
          A.Compare (P.parse_relative_exn "Yield", A.Gt, A.Number_lit 4.5)
        in
        Alcotest.(check bool) "holds" true (holds_on Helpers.security_doc 0 pred));
    tc "annotate rejects text root" (fun () ->
        (* A document is packed before anything evaluates it. *)
        Alcotest.check_raises "invalid" (Invalid_argument "Packed.pack: document root is a text node")
          (fun () -> ignore (Helpers.packed (Xia_xml.Types.text "x"))));
  ]

let properties =
  [
    QCheck.Test.make ~count:3000 ~name:"numeric literal_matches = float_of_string"
      (QCheck.make ~print:(fun (v, l, c) -> Printf.sprintf "%S %S %d" v l c)
         QCheck.Gen.(
           let* value = Helpers.number_text_gen in
           let* lit = frequency [ (1, return value); (2, Helpers.number_text_gen) ] in
           map (fun c -> (value, lit, c)) (int_range 0 5)))
      (fun (value, lit, c) ->
        let cmp = List.nth [ A.Eq; A.Ne; A.Lt; A.Le; A.Gt; A.Ge ] c in
        match float_of_string_opt lit with
        | None -> true
        | Some x ->
            A.literal_matches value cmp (A.Number_lit x)
            =
            match float_of_string_opt (String.trim value) with
            | None -> false
            | Some v -> A.eval_cmp_int cmp (Float.compare v x));
    QCheck.Test.make ~count:20_000 ~name:"read_number = float_of_string_opt of the trimmed value"
      (QCheck.make ~print:(Printf.sprintf "%S") Helpers.number_text_gen)
      (fun value ->
        let cell = { A.number = 0.0 } in
        let same a b =
          Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
          || (Float.is_nan a && Float.is_nan b)
        in
        match (A.read_number cell value, float_of_string_opt (String.trim value)) with
        | true, Some v -> same cell.A.number v
        | false, None -> true
        | true, None | false, Some _ -> false);
    QCheck.Test.make ~count:200 ~name:"//* returns every element" Helpers.doc_arbitrary
      (fun doc ->
        List.length (Helpers.eval_tree doc (Helpers.xpath "//*"))
        = Xia_xml.Types.count_elements doc);
    QCheck.Test.make ~count:200 ~name:"eval results are distinct node ids"
      Helpers.doc_arbitrary (fun doc ->
        let ms = Helpers.eval_tree doc (Helpers.xpath "//*") in
        let ids = List.map (fun (m : E.match_) -> (m.E.id.pre, m.E.id.attr)) ms in
        List.length ids = List.length (List.sort_uniq compare ids));
    QCheck.Test.make ~count:200 ~name:"/a subset of //a" Helpers.doc_arbitrary
      (fun doc ->
        let direct = Helpers.eval_tree doc (Helpers.xpath "/a") in
        let deep = Helpers.eval_tree doc (Helpers.xpath "//a") in
        List.for_all
          (fun (m : E.match_) ->
            List.exists
              (fun (m' : E.match_) -> Xia_xml.Types.compare_node_id m.E.id m'.E.id = 0)
              deep)
          direct);
  ]

(* ---------- differential: Eval against the copying oracle ---------- *)

let anodes_preorder root =
  let rec walk (n : Eval_oracle.anode) acc = List.fold_left (fun acc c -> walk c acc) (n :: acc) n.children in
  List.rev (walk root [])

let ids matches =
  List.map (fun (m : E.match_) -> (m.E.id.pre, m.E.id.attr, m.E.value)) matches

let doc_and_path = QCheck.pair Helpers.doc_arbitrary Helpers.xpath_arbitrary

let differential =
  [
    QCheck.Test.make ~count:1000 ~name:"eval = oracle (ids, values, order)" doc_and_path
      (fun (doc, path) ->
        ids (Helpers.eval_tree doc path) = ids (Eval_oracle.eval (Eval_oracle.annotate doc) path));
    QCheck.Test.make ~count:1000 ~name:"eval_elements ranks = oracle" doc_and_path
      (fun (doc, path) ->
        elements_of doc path
        = List.map
            (fun (n : Eval_oracle.anode) -> n.pre)
            (Eval_oracle.eval_elements (Eval_oracle.annotate doc) path));
    QCheck.Test.make ~count:1000 ~name:"exists_doc = oracle non-empty" doc_and_path
      (fun (doc, path) ->
        Helpers.exists_tree doc path = (Eval_oracle.eval (Eval_oracle.annotate doc) path <> []));
    QCheck.Test.make ~count:300 ~name:"one compiled path serves a whole table"
      (QCheck.pair (QCheck.list_of_size (QCheck.Gen.int_range 1 6) Helpers.doc_arbitrary)
         Helpers.xpath_arbitrary)
      (fun (docs, path) ->
        (* As the executor runs it: compiled once against the table's labels,
           its buffers reused from document to document. *)
        let labels = Xia_xml.Packed.labels () in
        let packed = List.map (Xia_xml.Packed.pack labels) docs in
        let compiled = E.path labels path in
        List.for_all2
          (fun doc p ->
            let oracle = Eval_oracle.eval_elements (Eval_oracle.annotate doc) path in
            ids (E.eval compiled p) = ids (Eval_oracle.eval (Eval_oracle.annotate doc) path)
            && E.count compiled (fun _ r -> r mod 2 = 0) p
               = List.length (List.filter (fun (n : Eval_oracle.anode) -> n.pre mod 2 = 0) oracle))
          docs packed);
    QCheck.Test.make ~count:500 ~name:"predicate_holds_on = oracle on every element"
      doc_and_path (fun (doc, path) ->
        let preds =
          A.Exists path
          :: A.Compare (path, A.Ge, A.Number_lit 0.)
          :: List.concat_map (fun (s : A.step) -> s.A.predicates) path
        in
        let packed = Helpers.packed doc in
        let nodes = anodes_preorder (Eval_oracle.annotate doc) in
        List.for_all
          (fun p ->
            let compiled = E.predicate packed.labels p in
            List.for_all
              (fun (n : Eval_oracle.anode) ->
                E.holds packed n.pre compiled = Eval_oracle.predicate_holds_on n p)
              nodes)
          preds);
  ]

let suites =
  [
    ("xpath.parser", parser_tests);
    ("xpath.ast", ast_tests);
    ("xpath.eval", eval_tests);
    Helpers.qsuite "xpath.properties" properties;
    Helpers.qsuite "xpath.differential" differential;
  ]
