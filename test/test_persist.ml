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
          ok (P.workload_lines (Filename.concat dir "wl.txt") (fun freq text -> (freq, text)))
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
          P.workload_lines (Filename.concat dir "wl.txt") (fun _ text ->
              if text.[0] = 'd' then raise (Xia_xml.Scan.Fail (2, "bad")))
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
    ("report.whatif", report_tests);
  ]
