(* Fuzz-ish robustness properties: every input entry point — the four
   parsers, the workload-file reader and the data-directory loader — returns
   a Result and never raises, and every error it returns is located inside
   the input: 1 <= line <= lines(input) and 1 <= column <= length(line)+1. *)

module Scan = Xia_xml.Scan

let printable_gen =
  QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 32 126)) (int_range 0 60))

let printable = QCheck.make ~print:(Printf.sprintf "%S") printable_gen

(* Mutate a valid input by splicing random characters, to reach deeper parser
   states than pure noise. *)
let mutate base =
  QCheck.Gen.(
    let* pos = int_range 0 (max 1 (String.length base - 1)) in
    let* insert = string_size ~gen:(map Char.chr (int_range 32 126)) (int_range 0 5) in
    return
      (String.sub base 0 (min pos (String.length base))
      ^ insert
      ^ String.sub base pos (String.length base - pos)))

let mutated_gen seeds = QCheck.Gen.(oneofl seeds >>= mutate)

let xpath_seeds =
  [
    "/Security[Yield>4.5]/SecInfo/*/Sector";
    "//Yield";
    "/a/@id";
    {|/a[b="x"][c]|};
    "/Order/@*";
  ]

let query_seeds =
  [
    {|for $s in T('C')/a where $s/b = 1 return $s|};
    {|for $s in T/a[b>1], $t in U/c return <r>{$s/x}</r>|};
    "insert into T <a><b>1</b></a>";
    {|delete from T where /a[k="v"]|};
    {|update T set /a/b = "9" where /a[c=1]|};
  ]

let sql_seeds =
  [
    {|SELECT * FROM T WHERE XMLEXISTS('/a[b="x"]' PASSING C AS "d")|};
    {|SELECT XMLQUERY('$d/a/n') FROM T WHERE XMLEXISTS('$d/a[b>1]')|};
    {|INSERT INTO T VALUES (XMLPARSE('<a/>'))|};
    {|UPDATE T SET XMLPATH '/a/b' = 'v' WHERE XMLEXISTS('/a')|};
  ]

let xml_seeds =
  [
    {|<a id="1"><b>x&amp;y</b><!-- c --><![CDATA[z]]></a>|};
    "<a><b/><c>t</c></a>";
    "<?xml version=\"1.0\"?>\n<a>\n  <b k='v'>t</b>\n  <c/>\n</a>\n";
  ]

(* [e] points at a character of [input], or just past the end of a line. *)
let within input (e : Scan.error) =
  let lines = String.split_on_char '\n' input in
  e.line >= 1
  && e.line <= List.length lines
  && e.column >= 1
  && e.column <= String.length (List.nth lines (e.line - 1)) + 1

let located parse input =
  match parse input with
  | Ok _ -> true
  | Error e -> within input e

let scratch = lazy (Filename.concat (Filename.get_temp_dir_name ())
                      (Printf.sprintf "xia_fuzz_%d" (Unix.getpid ())))

let scratch_file name content =
  let dir = Lazy.force scratch in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir name in
  Out_channel.with_open_bin path (fun oc -> output_string oc content);
  path

(* A statement behind comment lines, a blank, a frequency prefix and
   indentation: its error comes back in file coordinates, the statement's
   own error moved to line 3 and 5 columns right. *)
let workload_file_located statement =
  let statement = String.trim statement in
  let content = "# fuzz\n\n3 |  " ^ statement ^ "\n" in
  let path = scratch_file "fuzz.workload" content in
  match (Xia_workload.Workload.read path, Xia_query.Sqlxml.parse_located statement) with
  | Ok _, Ok _ -> true
  | Error e, Error s ->
      e.source = path && within content e && (e.line, e.column, e.message) = (3, s.column + 5, s.message)
  | _ -> false

(* A mutated document as the only .xml file of a data directory: it is
   loaded or reported, located in the file. *)
let data_dir_located document =
  let path = scratch_file "x.xml" document in
  match Xia_storage.Persist.load_directory (Xia_storage.Doc_store.create "T") (Lazy.force scratch) with
  | Error _ -> false
  | Ok { loaded; failed = [] } -> loaded = 1
  | Ok { loaded; failed = [ e ] } -> loaded = 0 && e.source = path && within document e
  | Ok _ -> false

let suites =
  [
    Helpers.qsuite "fuzz.parsers"
      [
        QCheck.Test.make ~count:500 ~name:"xml parser total on noise" printable
          (located Xia_xml.Parser.parse);
        QCheck.Test.make ~count:500 ~name:"xml parser total on mutations"
          (QCheck.make (mutated_gen xml_seeds))
          (located Xia_xml.Parser.parse);
        QCheck.Test.make ~count:500 ~name:"xpath parser total on noise" printable
          (located Xia_xpath.Parser.parse);
        QCheck.Test.make ~count:500 ~name:"xpath parser total on mutations"
          (QCheck.make (mutated_gen xpath_seeds))
          (fun s ->
            located Xia_xpath.Parser.parse s
            && located Xia_xpath.Parser.parse_relative_path s
            && located Xia_xpath.Pattern.of_string_result s);
        QCheck.Test.make ~count:500 ~name:"query parser total on noise" printable
          (located Xia_query.Parser.parse_statement);
        QCheck.Test.make ~count:500 ~name:"query parser total on mutations"
          (QCheck.make (mutated_gen query_seeds))
          (located Xia_query.Parser.parse_statement);
        QCheck.Test.make ~count:500 ~name:"sqlxml parser total on mutations"
          (QCheck.make (mutated_gen sql_seeds))
          (fun s ->
            located Xia_query.Sqlxml.parse_statement s
            && located Xia_query.Sqlxml.parse_located s);
        QCheck.Test.make ~count:300 ~name:"workload file errors are located in the file"
          (QCheck.make (mutated_gen (query_seeds @ sql_seeds)))
          workload_file_located;
        QCheck.Test.make ~count:300 ~name:"data directory errors are located in the file"
          (QCheck.make (mutated_gen xml_seeds))
          data_dir_located;
        QCheck.Test.make ~count:300 ~name:"valid xpath reparses to equal ast"
          (QCheck.make (QCheck.Gen.oneofl xpath_seeds))
          (fun s ->
            match Xia_xpath.Parser.parse s with
            | Error _ -> false
            | Ok p ->
                let printed = Xia_xpath.Printer.path_to_string p in
                (match Xia_xpath.Parser.parse printed with
                | Ok p' -> Xia_xpath.Ast.equal_path p p'
                | Error _ -> false));
        QCheck.Test.make ~count:300 ~name:"valid statements reparse to same text"
          (QCheck.make (QCheck.Gen.oneofl query_seeds))
          (fun s ->
            match Xia_query.Parser.parse_statement s with
            | Error _ -> false
            | Ok stmt ->
                let printed = Xia_query.Printer.statement_to_string stmt in
                (match Xia_query.Parser.parse_statement printed with
                | Ok stmt' ->
                    String.equal printed (Xia_query.Printer.statement_to_string stmt')
                | Error _ -> false));
      ];
    ( "fuzz.located",
      [
        Alcotest.test_case "multi-line xml error names its line" `Quick (fun () ->
            match Xia_xml.Parser.parse "<a>\n  <b>\n    <c></b>\n</a>" with
            | Ok _ -> Alcotest.fail "expected an error"
            | Error e -> Alcotest.(check (pair int int)) "line:col" (3, 10) (e.line, e.column));
      ] );
  ]
