(* xia_lint — domain-safety and hygiene analyzer for this repository.

   Usage: xia_lint [--json] [--only ID[,ID...]] [--skip ID[,ID...]]
                   [--callgraph] [--effects] [--explain ID] PATH...

   Lints every .ml under the given paths (default: lib) as one program: the
   whole library set is parsed once, a cross-unit call graph is built from
   it, the interprocedural effect pass (Xia_analysis.Effects) summarizes
   every binding, and the check catalog in Xia_analysis.Checks /
   Xia_analysis.Races / Xia_analysis.Dataflow runs over the shared graph and
   summaries.
   --callgraph prints the graph as Graphviz DOT instead of linting;
   --effects prints the per-binding effect summaries; --explain ID prints
   one check's documentation.  --only/--skip filter the catalog (stable
   intersection, reflected in the JSON envelope's "checks" array) so
   local runs can target one check cheaply.
   A finding is suppressed only in the source: [@lint.allow "ID"] at the
   site (or [@@lint.allow "ID"] on an enclosing binding), or, for H002, a
   "(* lint: reason *)" note on the line or the line above.
   Exit codes: 0 clean, 1 findings, 2 usage/parse errors. *)

module Lint = Xia_analysis.Lint
module Checks = Xia_analysis.Checks
module Finding = Xia_analysis.Finding

let () =
  let json = ref false in
  let callgraph = ref false in
  let effects = ref false in
  let explain = ref "" in
  let only = ref "" in
  let skip = ref "" in
  let paths = ref [] in
  let spec =
    [
      ("--json", Arg.Set json, " emit the versioned JSON report");
      ( "--callgraph",
        Arg.Set callgraph,
        " print the cross-unit call graph as Graphviz DOT and exit" );
      ( "--effects",
        Arg.Set effects,
        " print the per-binding interprocedural effect summaries and exit" );
      ( "--explain",
        Arg.Set_string explain,
        "ID print one check's title and rationale and exit" );
      ( "--only",
        Arg.Set_string only,
        "IDS run only these comma-separated check IDs" );
      ( "--skip",
        Arg.Set_string skip,
        "IDS run every check except these comma-separated IDs" );
    ]
  in
  let usage =
    "xia_lint [--json] [--only IDS] [--skip IDS] [--callgraph] [--effects] \
     [--explain ID] PATH..."
  in
  Arg.parse spec (fun p -> paths := p :: !paths) usage;
  if !explain <> "" then begin
    match Checks.find_check !explain with
    | Some c ->
        Printf.printf "%s — %s\n\n%s\n" c.Checks.id c.Checks.title c.Checks.detail;
        exit 0
    | None ->
        Printf.eprintf "xia_lint: unknown check ID %s (known: %s)\n" !explain
          (String.concat ", " (List.map (fun c -> c.Checks.id) Checks.catalog));
        exit 2
  end;
  let paths = match List.rev !paths with [] -> [ "lib" ] | ps -> ps in
  if !callgraph then begin
    let dot, errors = Lint.callgraph_dot paths in
    List.iter
      (fun (e : Lint.error) -> Printf.eprintf "xia_lint: %s: %s\n" e.path e.message)
      errors;
    print_string dot;
    exit (if errors = [] then 0 else 2)
  end;
  if !effects then begin
    let dump, errors = Lint.effects_dump paths in
    List.iter
      (fun (e : Lint.error) -> Printf.eprintf "xia_lint: %s: %s\n" e.path e.message)
      errors;
    print_string dump;
    exit (if errors = [] then 0 else 2)
  end;
  let split_ids s =
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let selected =
    if !only = "" && !skip = "" then None
    else
      match Checks.select ~only:(split_ids !only) ~skip:(split_ids !skip) with
      | Ok ids -> Some ids
      | Error msg ->
          Printf.eprintf "xia_lint: %s\n" msg;
          exit 2
  in
  let report = Lint.lint_paths paths in
  if report.Lint.errors <> [] then begin
    List.iter
      (fun (e : Lint.error) -> Printf.eprintf "xia_lint: %s: %s\n" e.path e.message)
      report.Lint.errors;
    exit 2
  end;
  let report =
    match selected with
    | None -> report
    | Some ids ->
        let keep (f : Finding.t) = List.mem f.Finding.id ids in
        { report with Lint.findings = List.filter keep report.Lint.findings }
  in
  if !json then print_string (Lint.report_to_json ?only:selected report)
  else begin
    List.iter (fun f -> print_endline (Finding.to_string f)) report.Lint.findings;
    if report.Lint.findings <> [] then
      Printf.eprintf "xia_lint: %d finding(s)\n" (List.length report.Lint.findings)
  end;
  exit (if report.Lint.findings = [] then 0 else 1)
