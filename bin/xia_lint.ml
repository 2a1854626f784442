(* xia_lint — state-safety and hygiene analyzer for this repository.

   Usage: xia_lint [--json] [--callgraph] PATH...

   Lints every .ml under the given paths (default: lib) as one program: the
   whole library set is parsed once, a cross-unit call graph is built from
   it, every binding's effect witnesses are summarized
   (Xia_analysis.Effects), and the check catalog in Xia_analysis.Checks /
   Xia_analysis.Dataflow runs over the shared graph and summaries.  --callgraph prints the graph as Graphviz DOT instead of
   linting.  Each check's rationale is in DESIGN.md §5c/§5f/§5h/§5k.
   A finding is suppressed only in the source: [@lint.allow "ID"] at the
   site (or [@@lint.allow "ID"] on an enclosing binding), or, for H002, a
   "(* lint: reason *)" note on the line or the line above.
   Exit codes: 0 clean, 1 findings, 2 usage/parse errors. *)

module Lint = Xia_analysis.Lint
module Finding = Xia_analysis.Finding

let () =
  let json = ref false in
  let callgraph = ref false in
  let paths = ref [] in
  let spec =
    [
      ("--json", Arg.Set json, " emit the versioned JSON report");
      ( "--callgraph",
        Arg.Set callgraph,
        " print the cross-unit call graph as Graphviz DOT and exit" );
    ]
  in
  Arg.parse spec (fun p -> paths := p :: !paths) "xia_lint [--json] [--callgraph] PATH...";
  let paths = match List.rev !paths with [] -> [ "lib" ] | ps -> ps in
  let report_errors errors =
    List.iter
      (fun (e : Lint.error) -> Printf.eprintf "xia_lint: %s: %s\n" e.path e.message)
      errors
  in
  if !callgraph then begin
    let dot, errors = Lint.callgraph_dot paths in
    report_errors errors;
    print_string dot;
    exit (if errors = [] then 0 else 2)
  end;
  let report = Lint.lint_paths paths in
  if report.Lint.errors <> [] then begin
    report_errors report.Lint.errors;
    exit 2
  end;
  if !json then print_string (Lint.report_to_json report)
  else begin
    List.iter (fun f -> print_endline (Finding.to_string f)) report.Lint.findings;
    if report.Lint.findings <> [] then
      Printf.eprintf "xia_lint: %d finding(s)\n" (List.length report.Lint.findings)
  end;
  exit (if report.Lint.findings = [] then 0 else 1)
