(* Tests for the XML data model, parser and printer. *)

module T = Xia_xml.Types
module P = Xia_xml.Parser
module Pr = Xia_xml.Printer

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let parse_ok s =
  match P.parse s with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "parse %S failed: %a" s Xia_xml.Scan.pp_error e

let parse_err s =
  match P.parse s with
  | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" s
  | Error _ -> ()

let roundtrip s = Pr.to_string (parse_ok s)

let basic_tests =
  [
    tc "simple element" (fun () ->
        check Alcotest.string "rt" "<a/>" (roundtrip "<a></a>"));
    tc "self closing" (fun () -> check Alcotest.string "rt" "<a/>" (roundtrip "<a/>"));
    tc "text content" (fun () ->
        check Alcotest.string "rt" "<a>hello</a>" (roundtrip "<a>hello</a>"));
    tc "nested" (fun () ->
        check Alcotest.string "rt" "<a><b>x</b><c/></a>" (roundtrip "<a><b>x</b><c/></a>"));
    tc "attributes" (fun () ->
        check Alcotest.string "rt" {|<a id="1" k="v"/>|} (roundtrip {|<a id="1" k="v"/>|}));
    tc "single-quoted attributes" (fun () ->
        check Alcotest.string "rt" {|<a id="1"/>|} (roundtrip "<a id='1'/>"));
    tc "entities decoded and re-encoded" (fun () ->
        check Alcotest.string "rt" "<a>x&amp;y&lt;z</a>" (roundtrip "<a>x&amp;y&lt;z</a>"));
    tc "numeric character reference" (fun () ->
        check Alcotest.string "rt" "<a>A</a>" (roundtrip "<a>&#65;</a>"));
    tc "hex character reference" (fun () ->
        check Alcotest.string "rt" "<a>A</a>" (roundtrip "<a>&#x41;</a>"));
    tc "apos and quot entities" (fun () ->
        check Alcotest.string "rt" "<a>'\"</a>" (roundtrip "<a>&apos;&quot;</a>"));
    tc "comments skipped" (fun () ->
        check Alcotest.string "rt" "<a><b/></a>" (roundtrip "<a><!-- note --><b/></a>"));
    tc "xml declaration skipped" (fun () ->
        check Alcotest.string "rt" "<a/>" (roundtrip "<?xml version=\"1.0\"?><a/>"));
    tc "doctype skipped" (fun () ->
        check Alcotest.string "rt" "<a/>" (roundtrip "<!DOCTYPE a><a/>"));
    tc "cdata" (fun () ->
        check Alcotest.string "rt" "<a>1 &lt; 2</a>" (roundtrip "<a><![CDATA[1 < 2]]></a>"));
    tc "whitespace-only text dropped" (fun () ->
        check Alcotest.string "rt" "<a><b/><c/></a>" (roundtrip "<a>\n  <b/>\n  <c/>\n</a>"));
    tc "mixed content preserved" (fun () ->
        check Alcotest.string "rt" "<a>x<b/>y</a>" (roundtrip "<a>x<b/>y</a>"));
    tc "namespace-ish tags are flat labels" (fun () ->
        check Alcotest.string "rt" "<ns:a><ns:b/></ns:a>" (roundtrip "<ns:a><ns:b/></ns:a>"));
    tc "mismatched closing tag rejected" (fun () -> parse_err "<a></b>");
    tc "unterminated element rejected" (fun () -> parse_err "<a><b></b>");
    tc "trailing garbage rejected" (fun () -> parse_err "<a/>junk");
    tc "empty input rejected" (fun () -> parse_err "");
    tc "unknown entity rejected" (fun () -> parse_err "<a>&nope;</a>");
    tc "attr without value rejected" (fun () -> parse_err "<a id/>");
  ]

let model_tests =
  [
    tc "count_elements" (fun () ->
        check Alcotest.int "n" 4 (T.count_elements (parse_ok "<a><b/><c><d/></c></a>")));
    tc "count_nodes includes attrs and text" (fun () ->
        check Alcotest.int "n" 4 (T.count_nodes (parse_ok {|<a id="1" k="2">x</a>|})));
    tc "direct_text concatenates only direct children" (fun () ->
        match parse_ok "<a>x<b>inner</b>y</a>" with
        | T.Element e -> check Alcotest.string "v" "xy" (T.direct_text e)
        | T.Text _ -> Alcotest.fail "expected element");
    tc "node_value of text" (fun () ->
        check Alcotest.string "v" "s" (T.node_value (T.text "s")));
    tc "leaf builds tag with value" (fun () ->
        check Alcotest.string "rt" "<t>v</t>" (Pr.to_string (T.leaf "t" "v")));
    tc "byte_size positive and grows" (fun () ->
        let small = T.byte_size (parse_ok "<a/>") in
        let big = T.byte_size (parse_ok "<a><b>some text here</b></a>") in
        Alcotest.(check bool) "grows" true (small > 0 && big > small));
    tc "iter_nodes preorder ids and label paths" (fun () ->
        let doc = parse_ok {|<a id="7"><b>x</b><c><d/></c></a>|} in
        let seen = ref [] in
        T.iter_nodes
          (fun id path value -> seen := (id, path, value) :: !seen)
          doc;
        let seen = List.rev !seen in
        check Alcotest.int "count" 5 (List.length seen);
        (match seen with
        | (id0, p0, _) :: (ida, pa, va) :: _ ->
            check Alcotest.int "root pre" 0 id0.T.pre;
            check (Alcotest.list Alcotest.string) "root path" [ "a" ] p0;
            check (Alcotest.option Alcotest.int) "attr idx" (Some 0) ida.T.attr;
            check (Alcotest.list Alcotest.string) "attr path" [ "a"; "@id" ] pa;
            check Alcotest.string "attr value" "7" va
        | _ -> Alcotest.fail "missing nodes");
        let paths = List.map (fun (_, p, _) -> String.concat "/" p) seen in
        Alcotest.(check bool) "d path present" true (List.mem "a/c/d" paths));
    tc "find_by_pre" (fun () ->
        let doc = parse_ok "<a><b/><c><d/></c></a>" in
        (match T.find_by_pre doc 3 with
        | Some e -> check Alcotest.string "tag" "d" e.T.tag
        | None -> Alcotest.fail "pre 3 not found");
        Alcotest.(check bool) "missing" true (T.find_by_pre doc 99 = None));
    tc "equal structural" (fun () ->
        Alcotest.(check bool) "eq" true
          (T.equal (parse_ok "<a><b>x</b></a>") (parse_ok "<a><b>x</b></a>"));
        Alcotest.(check bool) "neq" false
          (T.equal (parse_ok "<a><b>x</b></a>") (parse_ok "<a><b>y</b></a>")));
    tc "node_id compare orders by pre then attr" (fun () ->
        let a = { T.pre = 1; attr = None } in
        let b = { T.pre = 1; attr = Some 0 } in
        let c = { T.pre = 2; attr = None } in
        Alcotest.(check bool) "a<b" true (T.compare_node_id a b < 0);
        Alcotest.(check bool) "b<c" true (T.compare_node_id b c < 0);
        Alcotest.(check bool) "a=a" true (T.equal_node_id a a));
    tc "pretty printer parses back" (fun () ->
        (* no mixed content: pretty-printing interleaves indentation text *)
        let doc = parse_ok {|<a id="1"><b>x</b><c><d/></c></a>|} in
        let pretty = Pr.to_pretty_string doc in
        Alcotest.(check bool) "equal" true (T.equal doc (parse_ok pretty)));
  ]

let properties =
  [
    QCheck.Test.make ~count:200 ~name:"print/parse roundtrip" Helpers.doc_arbitrary
      (fun doc ->
        match P.parse (Pr.to_string doc) with
        | Ok doc' ->
            (* Whitespace-only text runs are dropped by the parser; compare
               the second roundtrip for a fixpoint instead. *)
            String.equal (Pr.to_string doc') (Pr.to_string (P.parse_exn (Pr.to_string doc')))
        | Error _ -> false);
    QCheck.Test.make ~count:200 ~name:"count_elements = iter_nodes elements"
      Helpers.doc_arbitrary (fun doc ->
        let n = ref 0 in
        T.iter_nodes (fun id _ _ -> if id.T.attr = None then incr n) doc;
        !n = T.count_elements doc);
    QCheck.Test.make ~count:200 ~name:"preorder ids are dense and increasing"
      Helpers.doc_arbitrary (fun doc ->
        let ids = ref [] in
        T.iter_nodes (fun id _ _ -> if id.T.attr = None then ids := id.T.pre :: !ids) doc;
        let ids = List.rev !ids in
        List.mapi (fun i x -> (i, x)) ids |> List.for_all (fun (i, x) -> i = x));
  ]

let suites =
  [
    ("xml.parser", basic_tests);
    ("xml.model", model_tests);
    Helpers.qsuite "xml.properties" properties;
  ]
