(* Analyzer driver: parse OCaml sources with compiler-libs once, build the
   cross-unit call graph once ([Callgraph]), walk it once into the site
   table ([Sites]), run the unit-local and whole-program check catalog
   over the sites ([Checks]), report.

   The unit of work is a source *string* ([lint_source]) so the test suite
   can exercise every check on inline fixtures — a one-unit program runs the
   identical whole-program pipeline over a one-unit graph; [lint_paths]
   layers the filesystem walk (and the filesystem-level H001 check) on
   top. *)

type error = { path : string; message : string }

type report = {
  findings : Finding.t list;   (* sorted *)
  errors : error list;         (* unreadable / unparsable inputs *)
  warnings : error list;       (* inputs analyzed with less than their layout *)
}

let empty_report = { findings = []; errors = []; warnings = [] }

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

(* Every parsetree-level finding of a program, all read off one site walk
   of the shared graph: the unit-local checks per unit, then the
   whole-program check (E002). *)
let program_findings graph =
  let sites = Sites.build graph in
  List.concat_map (Checks.check_unit sites) (Callgraph.units graph) @ Checks.check_program sites

let lint_source ~filename source =
  match parse_structure ~filename source with
  | Error e -> Error e
  | Ok structure ->
      let u = Callgraph.make_unit ~path:filename ~source structure in
      Ok (List.sort Finding.compare (program_findings (Callgraph.build [ u ])))

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

(* Parse every .ml into a unit; unreadable/unparsable files become errors
   and drop out of the graph (their findings are unknowable anyway). *)
let load_units mls =
  List.fold_left
    (fun (units, errors) ml ->
      match read_file ml with
      | exception Sys_error m -> (units, { path = ml; message = m } :: errors)
      | source -> (
          match parse_structure ~filename:ml source with
          | Ok structure ->
              (Callgraph.make_unit ~path:ml ~source structure :: units, errors)
          | Error e -> (units, e :: errors)))
    ([], []) mls
  |> fun (units, errors) -> (List.rev units, List.rev errors)

(* The loader behind every path-based entry point: walk [paths], parse
   every .ml once and link the parsable units into one call graph.  Walk
   and parse errors do not abort — the graph over the parsable subset is
   still useful — and ride along for the caller to report. *)
let load paths =
  let mls, mlis, walk_errors = collect_sources paths in
  let units, parse_errors = load_units mls in
  (Callgraph.build units, mls, mlis, walk_errors @ parse_errors)

(* A directory without its dune file is linted all the same, but calls
   that name its library are not resolved to it: say so. *)
let lint_paths paths =
  let graph, mls, mlis, errors = load paths in
  let all = Checks.missing_mli ~mls ~mlis @ program_findings graph in
  let warnings =
    List.map
      (fun dir ->
        {
          path = dir;
          message = "no dune file: calls naming this directory's library are not resolved to it";
        })
      (Callgraph.without_dune graph)
  in
  { findings = List.sort Finding.compare all; errors; warnings }

(* DOT rendering of the cross-unit call graph for the given paths. *)
let callgraph_dot paths =
  let graph, _, _, errors = load paths in
  (Callgraph.to_dot ~succ:(Sites.calls (Sites.build graph)) graph, errors)

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
