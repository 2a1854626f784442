(* Tests for the XML data model, parser and printer. *)

module T = Xia_xml.Types
module P = Xia_xml.Parser
module Pr = Xia_xml.Printer
module Packed = Xia_xml.Packed

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let parse_ok s =
  match P.parse s with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "parse %S failed: %s" s (Xia_xml.Scan.to_string e)

(* The located error of a rejected input: line, column and message. *)
let error_of s =
  match P.parse s with
  | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" s
  | Error (e : Xia_xml.Scan.error) -> (e.line, e.column, e.message)

let parse_err s = ignore (error_of s)

let roundtrip s = Pr.to_string (parse_ok s)

let located = Alcotest.(triple int int string)

(* Character references follow XML 1.0: [&#DDD;] and [&#xHHH;] only, the
   code point encoded as UTF-8, and 0, the surrogates and anything above
   0x10FFFF rejected where the reference ends. *)
let char_ref_tests =
  let decodes name input bytes =
    tc name (fun () -> check Alcotest.string "text" ("<a>" ^ bytes ^ "</a>") (roundtrip input))
  in
  let rejected name input =
    tc name (fun () ->
        check located "error"
          (1, String.length input - 3, "invalid character reference")
          (error_of input))
  in
  [
    decodes "two-byte code point as UTF-8" "<a>caf&#233;</a>" "caf\xc3\xa9";
    decodes "four-byte code point as UTF-8" "<a>&#x1F600;</a>" "\xf0\x9f\x98\x80";
    decodes "last code point" "<a>&#x10FFFF;</a>" "\xf4\x8f\xbf\xbf";
    decodes "code points around the surrogates" "<a>&#xD7FF;&#57344;</a>" "\xed\x9f\xbf\xee\x80\x80";
    decodes "upper-case hex digits" "<a>&#x4a;&#x4A;</a>" "JJ";
    tc "in an attribute value" (fun () ->
        check Alcotest.string "rt" "<a k=\"\xc3\xa9A\"/>" (roundtrip {|<a k="&#233;&#x41;"/>|}));
    rejected "binary form" "<a>&#0b1000001;</a>";
    rejected "octal form" "<a>&#0o101;</a>";
    rejected "underscore in digits" "<a>&#6_5;</a>";
    rejected "signed form" "<a>&#+65;</a>";
    rejected "0x prefix in a decimal reference" "<a>&#0x41;</a>";
    rejected "upper-case X" "<a>&#X41;</a>";
    rejected "no digits" "<a>&#x;</a>";
    rejected "code point 0" "<a>&#0;</a>";
    rejected "hex code point 0" "<a>&#x0;</a>";
    rejected "first surrogate" "<a>&#xD800;</a>";
    rejected "last surrogate" "<a>&#57343;</a>";
    rejected "above 0x10FFFF" "<a>&#x110000;</a>";
    rejected "too many digits to fit an int" "<a>&#99999999999999999999999999;</a>";
    tc "whitespace reference makes a whitespace-only run" (fun () ->
        check Alcotest.string "rt" "<a><b/></a>" (roundtrip "<a>&#32;&#x9;<b/>&#10;</a>"));
  ]

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
    tc "direct_text concatenates only direct children" (fun () ->
        match parse_ok "<a>x<b>inner</b>y</a>" with
        | T.Element e -> check Alcotest.string "v" "xy" (T.direct_text e)
        | T.Text _ -> Alcotest.fail "expected element");
    tc "leaf builds tag with value" (fun () ->
        check Alcotest.string "rt" "<t>v</t>" (Pr.to_string (T.leaf "t" "v")));
    tc "byte_size positive and grows" (fun () ->
        let small = T.byte_size (parse_ok "<a/>") in
        let big = T.byte_size (parse_ok "<a><b>some text here</b></a>") in
        Alcotest.(check bool) "grows" true (small > 0 && big > small));
    tc "iter_nodes preorder ids and label paths" (fun () ->
        let doc = parse_ok {|<a id="7"><b>x</b><c><d/></c></a>|} in
        let seen = ref [] in
        Walk_oracle.iter_nodes
          (fun pre attr path value -> seen := (Walk_oracle.node_id pre attr, path, value) :: !seen)
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
        (* A packed document's preorder rank is its array index. *)
        let doc = Helpers.packed (parse_ok "<a><b/><c><d/></c></a>") in
        check Alcotest.int "tag" (Packed.find_label doc.labels "d") doc.tags.(3);
        check Alcotest.int "subtree of c" 3 doc.last.(2);
        Alcotest.(check bool) "missing" true (Packed.elements doc <= 99));
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
        Alcotest.(check int) "a=a" 0 (T.compare_node_id a a));
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
        Walk_oracle.iter_nodes (fun _ attr _ _ -> if attr < 0 then incr n) doc;
        !n = T.count_elements doc);
    QCheck.Test.make ~count:200 ~name:"preorder ids are dense and increasing"
      Helpers.doc_arbitrary (fun doc ->
        let ids = ref [] in
        Walk_oracle.iter_nodes (fun pre attr _ _ -> if attr < 0 then ids := pre :: !ids) doc;
        let ids = List.rev !ids in
        List.mapi (fun i x -> (i, x)) ids |> List.for_all (fun (i, x) -> i = x));
    QCheck.Test.make ~count:300 ~name:"guided walk visits what the oracle walk visits"
      Helpers.doc_arbitrary (fun doc ->
        (* The guide value is the label path itself. *)
        let packed = Helpers.packed doc in
        let g = Packed.guide packed.labels ~root:[] ~label:(fun p l -> p @ [ l ]) ~dead:(fun _ -> false) in
        let seen = ref [] in
        let node = Walk_oracle.node_id in
        Packed.walk g (fun pre attr path value -> seen := (node pre attr, path, value) :: !seen) packed;
        let oracle = ref [] in
        Walk_oracle.iter_nodes
          (fun pre attr path value -> oracle := (node pre attr, path, value) :: !oracle)
          doc;
        !seen = !oracle);
    QCheck.Test.make ~count:300 ~name:"guided walk skips dead subtrees, ranks unchanged"
      (QCheck.pair Helpers.doc_arbitrary (QCheck.make Helpers.tag_gen)) (fun (doc, tag) ->
        (* Paths through an element [tag] are dead: the walk reports exactly
           the oracle's nodes off such paths, with the oracle's ranks. *)
        let packed = Helpers.packed doc in
        let g =
          Packed.guide packed.labels ~root:(true, []) ~dead:(fun (live, _) -> not live)
            ~label:(fun (_, p) l -> (not (String.equal l tag), p @ [ l ]))
        in
        let seen = ref [] in
        let node = Walk_oracle.node_id in
        Packed.walk g
          (fun pre attr (_, path) value -> seen := (node pre attr, path, value) :: !seen)
          packed;
        let oracle = ref [] in
        Walk_oracle.iter_nodes
          (fun pre attr path value ->
            if not (List.mem tag path) then oracle := (node pre attr, path, value) :: !oracle)
          doc;
        !seen = !oracle);
  ]

(* Documents that stress packing: the random trees (mixed content, [Text
   ""] and attributes), plus deep chains and wide fans with text between
   the elements. *)
let packing_gen =
  QCheck.Gen.(
    let mixed_child = oneof [ map T.text Helpers.text_gen; Helpers.xml_gen ] in
    let deep =
      let* depth = int_range 50 400 in
      let* leaf = Helpers.doc_gen in
      let* texts = list_repeat depth (opt Helpers.text_gen) in
      return
        (List.fold_left
           (fun inner text ->
             match text with
             | None -> T.element "n" [ inner ]
             | Some s -> T.element ~attrs:[ ("d", s) ] "n" [ T.text s; inner; T.text s ])
           leaf texts)
    in
    let wide =
      let* children = list_size (int_range 100 800) mixed_child in
      let* attrs = list_size (int_range 0 3) Helpers.attr_gen in
      return (T.element ~attrs "w" children)
    in
    frequency [ (6, Helpers.doc_gen); (1, deep); (1, wide) ])

let packing_properties =
  [
    QCheck.Test.make ~count:400 ~name:"packing round-trips exactly"
      (QCheck.make
         ~print:(fun (a, b) -> Pr.to_string a ^ "\n" ^ Pr.to_string b)
         (QCheck.Gen.pair packing_gen packing_gen))
      (fun (a, b) ->
        (* Both share one label table, as a store's documents do. *)
        let labels = Packed.labels () in
        List.for_all
          (fun doc ->
            let p = Packed.pack labels doc in
            T.equal (Packed.unpack p) doc
            && Packed.elements p = T.count_elements doc
            && p.bytes = T.byte_size doc)
          [ a; b ]);
  ]

(* Printed random documents with everything the grammar skips or decodes
   spliced in: whitespace, comments, CDATA and processing instructions
   into text and between children, entity and character references (some
   invalid) into text and attribute values, either quote, spaces around
   [=] and before [>], both forms of an empty element, and a prolog. *)
let spliced_doc_gen =
  QCheck.Gen.(
    let escape s =
      String.concat ""
        (List.map
           (function
             | '&' -> "&amp;" | '<' -> "&lt;" | '"' -> "&quot;" | '\'' -> "&apos;"
             | c -> String.make 1 c)
           (List.of_seq (String.to_seq s)))
    in
    let space = oneofl [ ""; " "; "\n  "; "\t"; "\r\n" ] in
    let reference =
      frequency
        [
          ( 12,
            oneofl
              [ "&amp;"; "&lt;"; "&gt;"; "&quot;"; "&apos;"; "&#65;"; "&#x41;"; "&#233;";
                "&#x1F600;"; "&#32;"; "&#xa;" ] );
          (1, oneofl [ "&#0;"; "&#X41;"; "&#xD800;"; "&#x110000;"; "&nope;"; "&#;"; "&amp" ]);
        ]
    in
    let misc = [ "<!-- c -->"; "<!---->"; "<?pi x?>"; " "; "\n  " ] in
    let text_piece =
      frequency
        [
          (3, oneofl misc);
          (3, reference);
          (2, oneofl [ "<![CDATA[x<&]]>"; "<![CDATA[]]>"; "<![CDATA[ ]]>"; "]]>"; ">" ]);
        ]
    in
    (* [s] escaped, with up to three pieces spliced in at random places. *)
    let splice piece s =
      let+ cuts = list_size (int_range 0 3) (pair (int_bound (String.length s)) piece) in
      let cuts = List.stable_sort (fun (a, _) (b, _) -> compare a b) cuts in
      let buf = Buffer.create 32 in
      let at =
        List.fold_left
          (fun at (k, piece) ->
            Buffer.add_string buf (escape (String.sub s at (k - at)));
            Buffer.add_string buf piece;
            k)
          0 cuts
      in
      Buffer.add_string buf (escape (String.sub s at (String.length s - at)));
      Buffer.contents buf
    in
    let attribute (k, v) =
      let* quote = oneofl [ "\""; "'" ] and* v = splice (frequency [ (1, return " "); (3, reference) ]) v
      and* before = space and* around = space in
      return (before ^ " " ^ k ^ around ^ "=" ^ around ^ quote ^ v ^ quote)
    in
    let rec node = function
      | T.Text s -> splice text_piece s
      | T.Element { tag; attrs; children } ->
          let* attrs = flatten_l (List.map attribute attrs)
          and* children = flatten_l (List.map node children)
          and* gaps = list_repeat (List.length children + 1) (oneofl ("" :: misc))
          and* self_closing = bool and* trailing = space in
          let open_tag = "<" ^ tag ^ String.concat "" attrs ^ trailing in
          if children = [] && self_closing then return (open_tag ^ "/>")
          else
            let body = List.concat (List.map2 (fun gap child -> [ gap; child ]) (List.tl gaps) children) in
            return
              (open_tag ^ ">" ^ List.hd gaps ^ String.concat "" body ^ "</" ^ tag ^ trailing ^ ">")
    in
    let* doc = Helpers.doc_gen in
    let* body = node doc
    and* prolog = oneofl [ ""; "<?xml version=\"1.0\"?>\n"; "<!DOCTYPE a>"; "<!-- top -->\n" ]
    and* after = oneofl [ ""; "\n"; "<!-- end -->"; "<?pi?>\n" ] in
    return (prolog ^ body ^ after))

(* Both parsers give the same tree, or the same located error. *)
let same_as_oracle input =
  match (P.parse input, Xml_oracle.parse input) with
  | Ok a, Ok b -> a = b
  | Error a, Error b -> a = b
  | _ -> false

let differential =
  [
    QCheck.Test.make ~count:1000 ~name:"parser = oracle on spliced printed documents"
      (QCheck.make ~print:(Printf.sprintf "%S") spliced_doc_gen)
      same_as_oracle;
    (* The fuzz.parsers mutations of its XML seeds, and of spliced
       documents. *)
    QCheck.Test.make ~count:1000 ~name:"parser = oracle on mutated documents"
      (QCheck.make ~print:(Printf.sprintf "%S")
         QCheck.Gen.(
           oneof [ oneofl Test_fuzz.xml_seeds; spliced_doc_gen ] >>= Test_fuzz.mutate))
      same_as_oracle;
  ]

let suites =
  [
    ("xml.parser", basic_tests);
    ("xml.char_ref", char_ref_tests);
    ("xml.model", model_tests);
    Helpers.qsuite "xml.properties" properties;
    Helpers.qsuite "xml.packed" packing_properties;
    Helpers.qsuite "xml.differential" differential;
  ]
