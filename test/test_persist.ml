(* Tests for directory persistence, workload files and the what-if report. *)

module P = Xia_storage.Persist
module DS = Xia_storage.Doc_store
module Cat = Xia_index.Catalog
module W = Xia_workload.Workload
module Report = Xia_advisor.Report
module D = Xia_index.Index_def

let tc name f = Alcotest.test_case name `Quick f

let tmp_dir prefix =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) (prefix ^ string_of_int (Random.int 1_000_000)) in
  Sys.mkdir dir 0o755;
  dir

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Xia_xml.Scan.to_string e)

let write_file dir name content =
  let oc = open_out (Filename.concat dir name) in
  output_string oc content;
  close_out oc

let persist_tests =
  [
    tc "save then load roundtrips documents" (fun () ->
        let store = DS.create "T" in
        ignore (DS.insert store (Helpers.xml "<a><b>1</b></a>"));
        ignore (DS.insert store (Helpers.xml {|<a id="7">x</a>|}));
        let dir = tmp_dir "xia_save" in
        P.save_directory store dir;
        let store2 = DS.create "T2" in
        let report = ok (P.load_directory store2 dir) in
        Alcotest.(check int) "loaded" 2 report.P.loaded;
        Alcotest.(check int) "no failures" 0 (List.length report.P.failed);
        Alcotest.(check int) "count" 2 (DS.doc_count store2);
        Alcotest.(check int) "elements" (DS.total_elements store) (DS.total_elements store2));
    tc "save then load prints stored documents byte-identically" (fun () ->
        (* Mixed content, attributes, empty elements and entities: [find]
           unpacks each exactly, before the save and after the load. *)
        let texts =
          [
            {|<a x="1" y="&lt;2&amp;3">t<b>u</b>v<c/>w</a>|};
            "<r><s>1</s><s/><s>3<t>4</t></s></r>";
            {|<FIXML><Order ID="7" Side="1"><Instrmt Sym="S"/></Order></FIXML>|};
            "<e/>";
          ]
        in
        let store = DS.create "T" in
        List.iter (fun t -> ignore (DS.insert store (Helpers.xml t))) texts;
        let printed s =
          List.map
            (fun id -> Xia_xml.Printer.to_string (Option.get (DS.find s id)))
            (DS.doc_ids s)
        in
        Alcotest.(check (list string)) "stored" texts (printed store);
        let dir = tmp_dir "xia_exact" in
        P.save_directory store dir;
        let loaded = DS.create "T" in
        ignore (ok (P.load_directory loaded dir));
        Alcotest.(check (list string)) "loaded" texts (printed loaded));
    tc "load skips non-xml files and reports bad xml" (fun () ->
        let dir = tmp_dir "xia_load" in
        write_file dir "good.xml" "<a/>";
        write_file dir "bad.xml" "<a>\n  <b></a>";
        write_file dir "notes.txt" "not xml";
        let store = DS.create "T" in
        let report = ok (P.load_directory store dir) in
        Alcotest.(check int) "loaded" 1 report.P.loaded;
        (match report.P.failed with
        | [ e ] ->
            Alcotest.(check string) "file" (Filename.concat dir "bad.xml") e.Xia_xml.Scan.source;
            Alcotest.(check (pair int int)) "line:col" (2, 8) (e.line, e.column)
        | _ -> Alcotest.fail "expected one failure");
        Alcotest.(check int) "count" 1 (DS.doc_count store));
    tc "load of missing directory is an error naming it" (fun () ->
        match P.load_directory (DS.create "T") "/nonexistent/dir/xyz" with
        | Ok _ -> Alcotest.fail "expected an error"
        | Error e ->
            Alcotest.(check string) "source" "/nonexistent/dir/xyz" e.Xia_xml.Scan.source;
            Alcotest.(check int) "no position" 0 e.line);
    tc "save creates nested directories" (fun () ->
        let store = DS.create "T" in
        ignore (DS.insert store (Helpers.xml "<a/>"));
        let dir =
          Filename.concat (tmp_dir "xia_nest") (Filename.concat "deep" "er")
        in
        P.save_directory store dir;
        Alcotest.(check bool) "exists" true (Sys.is_directory dir));
    tc "ids reproducible via filename order" (fun () ->
        let dir = tmp_dir "xia_order" in
        write_file dir "b.xml" "<b/>";
        write_file dir "a.xml" "<a/>";
        let store = DS.create "T" in
        ignore (ok (P.load_directory store dir));
        match DS.find store 0 with
        | Some doc ->
            Alcotest.(check (option string)) "first is a.xml" (Some "a")
              (Xia_xml.Types.tag_of doc)
        | None -> Alcotest.fail "doc 0 missing");
  ]

let workload_file_tests =
  [
    tc "workload_lines parses frequencies and comments" (fun () ->
        let dir = tmp_dir "xia_wl" in
        write_file dir "wl.txt"
          "# comment\n\nfor $x in T/a return $x\n5.5|delete from T where /a\n";
        let lines =
          ok
            (P.workload_lines (Filename.concat dir "wl.txt") ~parse:Fun.id (fun freq text ->
                 (freq, text)))
        in
        Alcotest.(check int) "two" 2 (List.length lines);
        (match lines with
        | [ (f1, _); (f2, s2) ] ->
            Alcotest.(check (float 0.001)) "default" 1.0 f1;
            Alcotest.(check (float 0.001)) "explicit" 5.5 f2;
            Alcotest.(check string) "text" "delete from T where /a" s2
        | _ -> Alcotest.fail "unexpected");
        (* A failure [f] raises in a statement is moved to its file line and column. *)
        match
          P.workload_lines (Filename.concat dir "wl.txt")
            ~parse:(fun text -> if text.[0] = 'd' then raise (Xia_xml.Scan.Fail (2, "bad")))
            (fun _ () -> ())
        with
        | Ok _ -> Alcotest.fail "expected an error"
        | Error e -> Alcotest.(check (pair int int)) "file line and column" (4, 7) (e.line, e.column));
    tc "Workload.of_file accepts both languages" (fun () ->
        let dir = tmp_dir "xia_wl2" in
        write_file dir "wl.txt"
          ("for $x in T/a where $x/k = \"v\" return $x\n"
         ^ "2.0|SELECT * FROM T WHERE XMLEXISTS('/a[k=\"v\"]')\n");
        let wl = ok (W.read (Filename.concat dir "wl.txt")) in
        Alcotest.(check int) "two" 2 (W.size wl);
        (* Both lines must expose the same indexable pattern. *)
        match List.map (fun (i : W.item) -> Xia_query.Rewriter.indexable_patterns i.W.statement) wl with
        | [ [ (_, p1, _) ]; [ (_, p2, _) ] ] ->
            Alcotest.(check string) "same" (Xia_xpath.Pattern.to_string p1)
              (Xia_xpath.Pattern.to_string p2)
        | _ -> Alcotest.fail "expected one pattern each");
    tc "of_file reports parse errors with line numbers" (fun () ->
        let dir = tmp_dir "xia_wl3" in
        write_file dir "wl.txt" "for $x in T/a return $x\nnot a statement\n";
        Alcotest.(check bool) "error" true (Result.is_error (W.read (Filename.concat dir "wl.txt")));
        Alcotest.(check bool) "of_file raises" true
          (try
             ignore (W.of_file (Filename.concat dir "wl.txt"));
             false
           with Invalid_argument msg -> String.length msg > 0));
    tc "of_file reports the file line, not the statement count" (fun () ->
        let dir = tmp_dir "xia_wl4" in
        let path = Filename.concat dir "wl.txt" in
        write_file dir "wl.txt" "# header\n\nfor $x in T/a return $x\n  2 | not a statement\n";
        match W.read path with
        | Ok _ -> Alcotest.fail "expected a parse error"
        | Error e ->
            Alcotest.(check string) "file" path e.Xia_xml.Scan.source;
            Alcotest.(check (pair int int)) "file line and column" (4, 7) (e.line, e.column));
    tc "negative and non-finite frequencies are rejected, zero is not" (fun () ->
        let dir = tmp_dir "xia_wl5" in
        let path = Filename.concat dir "wl.txt" in
        List.iter
          (fun prefix ->
            write_file dir "wl.txt"
              ("for $x in T/a return $x\n" ^ prefix ^ "|for $x in T/a return $x\n");
            match W.read path with
            | Ok _ -> Alcotest.failf "prefix %S accepted" prefix
            | Error e ->
                Alcotest.(check (pair string int))
                  (Printf.sprintf "%S names file and line 2" prefix)
                  (path, 2) (e.Xia_xml.Scan.source, e.line))
          [ "nan"; "inf"; "-inf"; "-5"; " -0.5 " ];
        write_file dir "wl.txt" "0|for $x in T/a return $x\n";
        match ok (W.read path) with
        | [ item ] -> Alcotest.(check (float 0.0)) "zero kept" 0.0 item.W.freq
        | _ -> Alcotest.fail "expected one item");
    tc "repeated lines parse to per-line parse_any and share one value" (fun () ->
        let dir = tmp_dir "xia_wl6" in
        let xq = {|for $x in T/a where $x/k = "v" return $x|} in
        let sql = {|SELECT * FROM T WHERE XMLEXISTS('/a[k="v"]')|} in
        let upd = {|update T set /a/b = "9" where /a[c=1]|} in
        (* (frequency prefix, statement text) per statement line; the file
           interleaves comments, blanks and stray whitespace. *)
        let lines =
          [ ("", xq); ("2|", sql); ("3.5|", xq); ("", sql); ("0.25|", upd);
            ("  7 | ", xq); ("", upd); ("1|", sql) ]
        in
        write_file dir "wl.txt"
          ("# repeated statements\n\n"
          ^ String.concat "\n# between\n"
              (List.map (fun (prefix, text) -> prefix ^ text) lines)
          ^ "\n");
        let wl = ok (W.read (Filename.concat dir "wl.txt")) in
        let expected =
          List.mapi
            (fun i (prefix, text) ->
              let freq =
                match String.index_opt prefix '|' with
                | Some bar -> float_of_string (String.trim (String.sub prefix 0 bar))
                | None -> 1.0
              in
              match Xia_query.Sqlxml.parse_any text with
              | Ok (`Xquery s | `Sqlxml s) -> (Printf.sprintf "S%d" (i + 1), freq, s)
              | Error msg -> Alcotest.fail msg)
            lines
        in
        Alcotest.(check int) "size" (List.length lines) (W.size wl);
        List.iter2
          (fun (label, freq, stmt) (it : W.item) ->
            Alcotest.(check string) "label" label it.W.label;
            Alcotest.(check (float 0.0)) (label ^ " freq") freq it.W.freq;
            Alcotest.(check bool) (label ^ " statement") true (stmt = it.W.statement))
          expected wl;
        (* Lines with the same text share one parsed value. *)
        let texts = List.map snd lines in
        List.iteri
          (fun i (a : W.item) ->
            List.iteri
              (fun j (b : W.item) ->
                if String.equal (List.nth texts i) (List.nth texts j) then
                  Alcotest.(check bool)
                    (a.W.label ^ " shares " ^ b.W.label)
                    true (a.W.statement == b.W.statement))
              wl)
          wl);
  ]

(* What a memo-free reader makes of one raw line: [None] for a blank or
   comment line, else its frequency and statement text. *)
let oracle_line raw =
  let line = String.trim raw in
  if line = "" || line.[0] = '#' then None
  else
    match String.index_opt line '|' with
    | None -> Some (1.0, line)
    | Some bar -> (
        match float_of_string_opt (String.trim (String.sub line 0 bar)) with
        | Some freq ->
            Some (freq, String.trim (String.sub line (bar + 1) (String.length line - bar - 1)))
        | None -> Some (1.0, line))

(* Raw lines built from a few statements, each under several prefixes and
   spacings, drawn with repeats and mixed with comments and blank lines. *)
let memo_file_lines seed =
  let statements =
    [
      {|for $x in T/a where $x/k = "v" return $x|};
      {|SELECT * FROM T WHERE XMLEXISTS('/a[k="v"]')|};
      {|update T set /a/b = "9" where /a[c=1]|};
      "delete from T where /a[k=2]";
    ]
  in
  let prefixes = [ ""; "2|"; "3.5|"; "  7 | "; "0|"; "0.25|"; "1e1|"; "\t12.|"; ".5 |" ] in
  let others = [ "# comment"; ""; "   "; "  # indented comment" ] in
  let rng = Random.State.make [| seed |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let fresh () =
    if Random.State.int rng 5 = 0 then pick others
    else pick prefixes ^ pick statements ^ pick [ ""; " "; "\t"; "  " ]
  in
  (* A pool of raw lines, then lines drawn from it: most repeat exactly. *)
  let pool = List.init 24 (fun _ -> fresh ()) in
  List.init 200 (fun _ -> pick pool)

let memo_tests =
  [
    tc "Workload.read = memo-free oracle on repeated, respaced and re-prefixed lines" (fun () ->
        let dir = tmp_dir "xia_wl7" in
        let path = Filename.concat dir "wl.txt" in
        List.iter
          (fun seed ->
            let raws = memo_file_lines seed in
            write_file dir "wl.txt" (String.concat "\n" raws ^ "\n");
            let expected =
              List.filter_map
                (fun raw ->
                  Option.map
                    (fun (freq, text) ->
                      match Xia_query.Sqlxml.parse_any text with
                      | Ok (`Xquery s | `Sqlxml s) -> (raw, freq, s)
                      | Error msg -> Alcotest.fail msg)
                    (oracle_line raw))
                raws
            in
            let wl = ok (W.read path) in
            Alcotest.(check int) "size" (List.length expected) (W.size wl);
            List.iteri
              (fun i ((_, freq, stmt), (it : W.item)) ->
                let label = Printf.sprintf "S%d" (i + 1) in
                Alcotest.(check string) "label" label it.W.label;
                Alcotest.(check int64) (label ^ " freq") (Int64.bits_of_float freq)
                  (Int64.bits_of_float it.W.freq);
                Alcotest.(check bool) (label ^ " statement") true (stmt = it.W.statement))
              (List.combine expected wl);
            (* Identical raw lines share one statement value. *)
            List.iter2
              (fun (raw, _, _) (a : W.item) ->
                List.iter2
                  (fun (raw', _, _) (b : W.item) ->
                    if String.equal raw raw' then
                      Alcotest.(check bool) (a.W.label ^ " shares " ^ b.W.label) true
                        (a.W.statement == b.W.statement))
                  expected wl)
              expected wl)
          [ 1; 2; 3 ]);
    tc "the first bad line is reported, also after and among repeats" (fun () ->
        let dir = tmp_dir "xia_wl8" in
        let path = Filename.concat dir "wl.txt" in
        let q = "for $x in T/a return $x" in
        List.iter
          (fun (what, lines, at) ->
            write_file dir "wl.txt" (String.concat "\n" lines ^ "\n");
            match W.read path with
            | Ok _ -> Alcotest.failf "%s: expected an error" what
            | Error e ->
                Alcotest.(check (pair string (pair int int))) what (path, at)
                  (e.Xia_xml.Scan.source, (e.line, e.column)))
          [
            ("bad statement after repeats", [ q; q; "2|" ^ q; q; "  2 | not a statement" ], (5, 7));
            ( "repeated bad statement",
              [ q; "2|" ^ q; "3| not a statement"; q; "3| not a statement" ],
              (3, 4) );
            ("repeated bad frequency", [ q; "-5|" ^ q; q; "-5|" ^ q ], (2, 1));
            ("bad frequency after repeats", [ "4|" ^ q; "4|" ^ q; " nan |" ^ q ], (3, 2));
          ]);
  ]

(* Frequency prefixes: every one the reader takes as a number must read as
   [float_of_string_opt] reads it. *)
let frequencies_agree prefixes =
  let dir = tmp_dir "xia_freq" in
  let path = Filename.concat dir "wl.txt" in
  write_file dir "wl.txt" (String.concat "" (List.map (fun p -> p ^ "|x\n") prefixes));
  let got = ok (P.workload_lines path ~parse:Fun.id (fun freq text -> (freq, text))) in
  List.length got = List.length prefixes
  && List.for_all2
       (fun prefix (freq, text) ->
         match oracle_line (prefix ^ "|x") with
         | Some (freq', text') -> Int64.bits_of_float freq = Int64.bits_of_float freq' && text = text'
         | None -> false)
       prefixes got

let frequency_tests =
  [
    tc "frequency prefixes read as float_of_string_opt reads them" (fun () ->
        Alcotest.(check bool) "agree" true
          (frequencies_agree
             [
               (* long mantissas around the 15/16/17-digit boundary *)
               "123456789012345"; "1234567890123456"; "9007199254740993"; "12345678901234.5";
               "95585765.07325435"; "964.55667375689126"; "0.82645031815421166";
               "1234567890123.45"; "0.000000000000001"; "0.1"; "0.3"; "2.675"; "000000000000000001";
               "-"; "12."; ".5"; "."; ""; "1e3"; "0x1p3"; "1_0"; " 7 "; "\t0.25 "; "0"; "0.0";
               "1.2.3"; "1 2"; "+5"; "5a";
             ]));
  ]

let report_tests =
  [
    tc "what-if report on the TPoX fixture" (fun () ->
        let catalog = Lazy.force Helpers.shared_catalog in
        let wl = Xia_workload.Tpox.workload () in
        let defs =
          [
            D.make ~table:"SECURITY" ~pattern:(Helpers.pattern "/Security/Symbol")
              ~dtype:D.Dstring ();
            D.make ~table:"SECURITY" ~pattern:(Helpers.pattern "/Security/Name")
              ~dtype:D.Dstring ();
          ]
        in
        let r = Report.evaluate_configuration catalog wl defs in
        Alcotest.(check int) "statements" (W.size wl) (List.length r.Report.statements);
        Alcotest.(check bool) "speedup > 1" true (r.Report.est_speedup > 1.0);
        Alcotest.(check bool) "size positive" true (r.Report.total_size > 0);
        (* /Security/Name is never a predicate: must be reported unused. *)
        Alcotest.(check int) "one unused" 1 (List.length r.Report.unused);
        Alcotest.(check bool) "name is the unused one" true
          (match r.Report.unused with
          | [ d ] -> Xia_xpath.Pattern.to_string d.D.pattern = "/Security/Name"
          | _ -> false));
    tc "report maintenance positive with DML workload" (fun () ->
        let catalog = Lazy.force Helpers.shared_catalog in
        let wl = Xia_workload.Tpox.workload_with_updates ~update_freq:10.0 () in
        let defs =
          [
            D.make ~table:Xia_workload.Tpox.order_table
              ~pattern:(Helpers.pattern "/FIXML/Order/@ID") ~dtype:D.Dstring ();
          ]
        in
        let r = Report.evaluate_configuration catalog wl defs in
        Alcotest.(check bool) "charged" true (r.Report.maintenance > 0.0));
    tc "report renders" (fun () ->
        let catalog = Lazy.force Helpers.shared_catalog in
        let wl = Xia_workload.Workload.prefix 2 (Xia_workload.Tpox.workload ()) in
        let r = Report.evaluate_configuration catalog wl [] in
        let text = Fmt.str "%a" Report.pp r in
        Alcotest.(check bool) "mentions workload" true
          (String.length text > 40));
  ]

let suites =
  [
    ("persist.directory", persist_tests);
    ("persist.workload_file", workload_file_tests);
    ("persist.memo", memo_tests);
    ("persist.frequency", frequency_tests);
    ("report.whatif", report_tests);
  ]
