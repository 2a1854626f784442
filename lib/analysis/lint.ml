(* Analyzer driver: parse OCaml sources with compiler-libs once, walk each
   unit once into its site table ([Sites]), run the check catalog over the
   sites ([Checks]), report.

   The unit of work is a source *string* ([lint_source]) so the test suite
   can exercise every check on inline fixtures through the identical
   per-unit pipeline; [lint_paths] layers the filesystem walk (and the
   filesystem-level H001 check) on top. *)

type error = { path : string; message : string }

type report = {
  findings : Finding.t list;   (* sorted *)
  errors : error list;         (* unreadable / unparsable inputs *)
}

let empty_report = { findings = []; errors = [] }

let parse_structure ~filename source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf filename;
  try Ok (Parse.implementation lexbuf) with
  | Syntaxerr.Error _ as e ->
      let msg =
        match Location.error_of_exn e with
        | Some (`Ok err) -> Format.asprintf "%a" Location.print_report err
        | _ -> "syntax error"
      in
      Error { path = filename; message = String.trim msg }
  | e -> Error { path = filename; message = Printexc.to_string e }

let lint_source ~filename source =
  Result.map
    (fun structure -> Checks.check_unit { path = filename; source; structure })
    (parse_structure ~filename source)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Recursively collect .ml/.mli files under [paths]; skips _build and dot
   directories.  Sorted for deterministic reports. *)
let collect_sources paths =
  let mls = ref [] and mlis = ref [] and errors = ref [] in
  let rec visit path =
    match (Sys.is_directory path : bool) with
    | exception Sys_error m -> errors := { path; message = m } :: !errors
    | true ->
        let base = Filename.basename path in
        if base <> "_build" && not (String.length base > 1 && base.[0] = '.') then
          Array.iter
            (fun entry -> visit (Filename.concat path entry))
            (let entries = Sys.readdir path in
             Array.sort String.compare entries;
             entries)
    | false ->
        if Filename.check_suffix path ".ml" then mls := path :: !mls
        else if Filename.check_suffix path ".mli" then mlis := path :: !mlis
  in
  List.iter visit paths;
  (List.rev !mls, List.rev !mlis, List.rev !errors)

(* Every .ml under [paths] is read, parsed and checked once: walk, read
   and parse errors do not abort, and ride along in the report. *)
let lint_paths paths =
  let mls, mlis, walk_errors = collect_sources paths in
  let results, errors =
    List.partition_map
      (fun ml ->
        match read_file ml with
        | exception Sys_error message -> Right { path = ml; message }
        | source -> Result.fold ~ok:Either.left ~error:Either.right (lint_source ~filename:ml source))
      mls
  in
  let all = Checks.missing_mli ~mls ~mlis @ List.concat results in
  { findings = List.sort Finding.compare all; errors = walk_errors @ errors }

(* ------------------------------------------------------ JSON rendering -- *)

(* Schema version of the machine-readable report.  Bump when the envelope
   shape changes; the fixtures in test/ lock the bytes.  v3: N/E-series
   checks in the catalog, top-level "errors" array.  v4: the
   flow-sensitive L/X-series in the catalog.  v5: no "suppressed" block
   (suppression lives in the source only). *)
let json_schema_version = 5

(* Array elements, one per line, comma-separated. *)
let json_lines = function [] -> "" | items -> "    " ^ String.concat ",\n    " items ^ "\n"

let report_to_json (r : report) =
  let array name sep = function
    | [] -> Printf.sprintf "  \"%s\": []%s\n" name sep
    | items -> Printf.sprintf "  \"%s\": [\n%s  ]%s\n" name (json_lines items) sep
  in
  String.concat ""
    [
      "{\n";
      Printf.sprintf "  \"schema_version\": %d,\n" json_schema_version;
      Printf.sprintf "  \"checks\": [\n%s  ],\n"
        (json_lines
           (List.map
              (fun (c : Checks.check_info) ->
                Printf.sprintf "{\"id\": \"%s\", \"title\": \"%s\"}"
                  (Finding.json_escape c.id) (Finding.json_escape c.title))
              Checks.catalog));
      array "findings" ","
        (List.map Finding.to_json (List.sort Finding.compare r.findings));
      array "errors" ""
        (List.map
           (fun e ->
             Printf.sprintf "{\"path\":\"%s\",\"message\":\"%s\"}"
               (Finding.json_escape e.path) (Finding.json_escape e.message))
           r.errors);
      "}\n";
    ]
