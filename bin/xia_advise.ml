(* Command-line front end for the XML Index Advisor.

   xia_advise advise  --workload tpox --budget-mb 4 --algorithm heuristics
   xia_advise explain --workload tpox --query "for $s in SECURITY('SDOC')/Security ..."
   xia_advise candidates --workload tpox *)

module Advisor = Xia_advisor.Advisor
module Catalog = Xia_index.Catalog
module Optimizer = Xia_optimizer.Optimizer
module W = Xia_workload.Workload

(* ---------- shared setup ---------- *)

module Scan = Xia_xml.Scan

type benchmark = Tpox | Xmark

(* Input errors travel as [Scan.error] results; [exit_code] is the one place
   that reports them: "xia_advise: <error>" on stderr and exit code 1. *)
let ( let* ) = Result.bind

let exit_code = function
  | Ok () -> 0
  | Error e ->
      prerr_endline ("xia_advise: " ^ Scan.to_string e);
      1

let iter_result f l = List.fold_left (fun acc x -> Result.bind acc (fun () -> f x)) (Ok ()) l

(* One "TABLE=DIR" argument: malformed files are warned about and skipped. *)
let load_table catalog spec =
  match String.index_opt spec '=' with
  | None -> Error (Scan.error "--data" (Printf.sprintf "expected TABLE=DIR, got %S" spec))
  | Some i ->
      let table = String.sub spec 0 i in
      let dir = String.sub spec (i + 1) (String.length spec - i - 1) in
      let store = Xia_storage.Doc_store.create table in
      let* report = Xia_storage.Persist.load_directory store dir in
      List.iter
        (fun e -> Format.eprintf "warning: %s@." (Scan.to_string e))
        report.Xia_storage.Persist.failed;
      Format.printf "Loaded %d documents into %s from %s@."
        report.Xia_storage.Persist.loaded table dir;
      Ok (ignore (Catalog.add_table catalog store))

(* Either generated benchmark data or user directories of XML files. *)
let load_catalog benchmark small data_dirs =
  let catalog = Catalog.create () in
  let* () =
    if data_dirs <> [] then
      let* () = iter_result (load_table catalog) data_dirs in
      Ok (Catalog.runstats_all catalog)
    else
      Ok
        (match benchmark, small with
        | Tpox, false -> Xia_workload.Tpox.load catalog
        | Tpox, true -> Xia_workload.Tpox.load ~scale:Xia_workload.Tpox.tiny_scale catalog
        | Xmark, false -> Xia_workload.Xmark.load catalog
        | Xmark, true -> Xia_workload.Xmark.load ~scale:Xia_workload.Xmark.tiny_scale catalog)
  in
  Ok catalog

(* Every table that [source] names must have been loaded. *)
let check_tables catalog source tables =
  let loaded = Catalog.table_names catalog in
  match List.find_opt (fun t -> not (List.mem t loaded)) tables with
  | None -> Ok ()
  | Some t ->
      Error
        (Scan.error source
           (Printf.sprintf "unknown table %s (loaded: %s)" t (String.concat ", " loaded)))

let base_workload benchmark update_freq synthetic workload_file catalog =
  match workload_file with
  | Some path -> W.read path
  | None ->
      let queries =
        match benchmark with
        | Tpox ->
            if update_freq > 0.0 then
              Xia_workload.Tpox.workload_with_updates ~update_freq ()
            else Xia_workload.Tpox.workload ()
        | Xmark -> Xia_workload.Xmark.workload ()
      in
      Ok
        (if synthetic = 0 then queries
         else
           queries
           @ Xia_workload.Synthetic.workload catalog (Catalog.table_names catalog) synthetic)

(* "TABLE:PATTERN:TYPE"; a pattern error points into the whole argument. *)
let index_def spec =
  let bad message = Error (Scan.error "--index" message) in
  match String.split_on_char ':' spec with
  | [ table; pattern; dtype ] -> (
      match String.uppercase_ascii dtype, Xia_xpath.Pattern.of_string_result pattern with
      | _, Error e ->
          Error { e with Scan.source = "--index"; column = e.Scan.column + String.length table + 1 }
      | ("VARCHAR" | "STRING" | "S"), Ok pattern ->
          Ok (Xia_index.Index_def.make ~table ~pattern ~dtype:Xia_index.Index_def.Dstring ())
      | ("DOUBLE" | "NUMBER" | "D"), Ok pattern ->
          Ok (Xia_index.Index_def.make ~table ~pattern ~dtype:Xia_index.Index_def.Ddouble ())
      | other, Ok _ -> bad (Printf.sprintf "unknown type %S" other))
  | _ -> bad (Printf.sprintf "expected TABLE:PATTERN:TYPE, got %S" spec)

(* Catalog, workload and --index definitions of a run, with every table
   they name checked loaded: the one setup of every workload command. *)
let setup benchmark small data_dirs workload_file update_freq synthetic index_specs =
  let* catalog = load_catalog benchmark small data_dirs in
  let* workload = base_workload benchmark update_freq synthetic workload_file catalog in
  let* defs =
    List.fold_right
      (fun spec acc ->
        let* d = index_def spec in
        let* ds = acc in
        Ok (d :: ds))
      index_specs (Ok [])
  in
  let* () =
    check_tables catalog
      (Option.value workload_file ~default:"--workload")
      (List.concat_map (fun (i : W.item) -> Xia_query.Ast.tables i.statement) workload)
  in
  let* () = check_tables catalog "--index" (List.map (fun d -> d.Xia_index.Index_def.table) defs) in
  Ok (catalog, workload, defs)

let algorithm_of_string = function
  | "greedy" -> Ok Advisor.Greedy
  | "heuristics" | "greedy-heuristics" -> Ok Advisor.Greedy_heuristics
  | "top-down-lite" | "tdlite" -> Ok Advisor.Top_down_lite
  | "top-down-full" | "tdfull" -> Ok Advisor.Top_down_full
  | "dp" | "dynamic-programming" -> Ok Advisor.Dynamic_programming
  | "all" | "all-index" -> Ok Advisor.All_index
  | s -> Error (Scan.error "--algorithm" (Printf.sprintf "unknown algorithm %S" s))

(* ---------- commands ---------- *)

let advise_cmd benchmark small data_dirs workload_file budget_mb algorithm beta
    update_freq synthetic compress trace_file metrics_file verbose =
  (* Either observability flag switches the whole pipeline's spans and
     metrics on for this run. *)
  if trace_file <> None || metrics_file <> None then Xia_obs.Obs.set_enabled true;
  let* catalog, workload, _ =
    setup benchmark small data_dirs workload_file update_freq synthetic []
  in
  let* alg = algorithm_of_string algorithm in
  let budget = int_of_float (budget_mb *. 1024.0 *. 1024.0) in
  let r, elapsed =
    Xia_obs.Trace.timed "cli.advise" (fun () ->
        Advisor.advise ~beta ?compress catalog workload ~budget alg)
  in
  if r.Advisor.summary.Xia_advisor.Workload_summary.compressed then
    Format.printf "workload compressed: %a@."
      Xia_advisor.Workload_summary.pp_info r.Advisor.summary;
  Format.printf "%a@." Advisor.pp_recommendation r;
  Format.printf
    "base cost %.0f -> new cost %.0f (estimated speedup %.2fx)@.advisor time %.2fs, optimizer calls %d@."
    r.Advisor.base_cost r.Advisor.new_cost r.Advisor.est_speedup elapsed
    r.Advisor.outcome.Xia_advisor.Search.optimizer_calls;
  if verbose then begin
    Format.printf "@.Workload:@.%a@." W.pp workload
  end;
  Option.iter
    (fun path ->
      Xia_obs.Trace.write_file path
        (Xia_obs.Trace.export_chrome (Xia_obs.Trace.flush ())))
    trace_file;
  Option.iter
    (fun path ->
      Xia_obs.Trace.write_file path
        (Xia_obs.Metrics.to_json (Xia_obs.Metrics.snapshot ())))
    metrics_file;
  Ok ()

let explain_cmd benchmark small data_dirs query with_recommended =
  let* catalog = load_catalog benchmark small data_dirs in
  let* (`Xquery stmt | `Sqlxml stmt) =
    Result.map_error (fun e -> { e with Scan.source = "--query" })
      (Xia_query.Sqlxml.parse_located query)
  in
  let* () = check_tables catalog "--query" (Xia_query.Ast.tables stmt) in
  Format.printf "Statement: %s@.@." (Xia_query.Printer.statement_to_string stmt);
  Format.printf "Indexable patterns (Enumerate Indexes mode):@.";
  let candidates = Optimizer.enumerate_indexes catalog stmt in
  List.iter
    (fun (table, pattern, dtype) ->
      Format.printf "  %s on %s AS %s@."
        (Xia_xpath.Pattern.to_string pattern)
        table
        (Xia_index.Index_def.data_type_to_string dtype))
    candidates;
  Format.printf "@.Plan without indexes:@.  %a@."
    Xia_optimizer.Plan.pp
    (Optimizer.optimize ~mode:Optimizer.Evaluate ~virtual_config:[] catalog stmt);
  if with_recommended then begin
    let defs =
      List.map
        (fun (table, pattern, dtype) -> Xia_index.Index_def.make ~table ~pattern ~dtype ())
        candidates
    in
    Format.printf "@.Plan with every candidate indexed (virtually):@.  %a@."
      Xia_optimizer.Plan.pp
      (Optimizer.optimize ~mode:Optimizer.Evaluate ~virtual_config:defs catalog stmt)
  end;
  Ok ()

let candidates_cmd benchmark small data_dirs workload_file update_freq synthetic =
  let* catalog, workload, _ =
    setup benchmark small data_dirs workload_file update_freq synthetic []
  in
  let set = Xia_advisor.Enumeration.candidates catalog workload in
  Format.printf "Workload: %d statements@." (W.size workload);
  Format.printf "Basic candidates: %d, total after generalization: %d@.@."
    (List.length (Xia_advisor.Candidate.basics set))
    (Xia_advisor.Candidate.cardinality set);
  List.iter
    (fun c ->
      Format.printf "  %a (size %d KB)@." Xia_advisor.Candidate.pp c
        (Xia_advisor.Candidate.size catalog c / 1024))
    (Xia_advisor.Candidate.to_list set);
  Ok ()

(* What-if: evaluate a user-supplied configuration. *)
let whatif_cmd benchmark small data_dirs workload_file update_freq synthetic index_specs =
  let* catalog, workload, defs =
    setup benchmark small data_dirs workload_file update_freq synthetic index_specs
  in
  let report = Xia_advisor.Report.evaluate_configuration catalog workload defs in
  Format.printf "%a@." Xia_advisor.Report.pp report;
  Ok ()

(* Review a materialized configuration: recommend drops. *)
let review_cmd benchmark small data_dirs workload_file update_freq synthetic index_specs =
  let* catalog, workload, defs =
    setup benchmark small data_dirs workload_file update_freq synthetic index_specs
  in
  List.iter (fun d -> ignore (Catalog.create_index catalog d)) defs;
  let drops = Xia_advisor.Report.drop_recommendations catalog workload in
  if drops = [] then Format.printf "No drops recommended: every index earns its keep.@."
  else begin
    Format.printf "Recommended drops:@.";
    List.iter
      (fun (d, reason) ->
        Format.printf "  DROP INDEX %s  -- %a@." (Xia_index.Index_def.name d)
          Xia_advisor.Report.pp_drop_reason reason)
      drops
  end;
  Ok ()

(* Recommendation-quality evaluation: regret vs the exhaustive optimum plus
   executor validation, on the committed small cases.  The heavy lifting
   (two-evaluator protocol, scoring, JSON rendering) lives in lib/eval; this
   command only selects cases, prints the tables and writes the files. *)
let eval_cmd benchmark small json_file perturb trace_file metrics_file =
  if trace_file <> None || metrics_file <> None then Xia_obs.Obs.set_enabled true;
  let specs =
    let all = Xia_eval.Eval.default_specs in
    match benchmark with
    | None -> all
    | Some Tpox ->
        List.filter (fun s -> s.Xia_eval.Eval.s_bench = Xia_eval.Eval.Tpox) all
    | Some Xmark ->
        List.filter (fun s -> s.Xia_eval.Eval.s_bench = Xia_eval.Eval.Xmark) all
  in
  if perturb <> 1.0 then
    Format.printf "search-phase cost model perturbed: index costs x %.2f@." perturb;
  let results, elapsed =
    Xia_obs.Trace.timed "cli.eval" (fun () ->
        Xia_eval.Eval.run ~perturb ~small specs)
  in
  List.iter (fun r -> Format.printf "%a@." Xia_eval.Eval.pp_case r) results;
  Format.printf "eval time %.2fs@." elapsed;
  Option.iter
    (fun path ->
      let json = Xia_eval.Eval.to_json ~small ~perturb results in
      if path = "-" then print_string json
      else begin
        let oc = open_out path in
        output_string oc json;
        close_out oc;
        Format.printf "wrote %s@." path
      end)
    json_file;
  Option.iter
    (fun path ->
      Xia_obs.Trace.write_file path
        (Xia_obs.Trace.export_chrome (Xia_obs.Trace.flush ())))
    trace_file;
  Option.iter
    (fun path ->
      Xia_obs.Trace.write_file path
        (Xia_obs.Metrics.to_json (Xia_obs.Metrics.snapshot ())))
    metrics_file;
  Ok ()

(* Generate benchmark data to directories of XML files. *)
let generate_cmd benchmark small out_dir =
  let* catalog = load_catalog benchmark small [] in
  List.iter
    (fun table ->
      let dir = Filename.concat out_dir table in
      Xia_storage.Persist.save_directory (Catalog.store catalog table) dir;
      Format.printf "%s: %d documents -> %s@." table
        (Xia_storage.Doc_store.doc_count (Catalog.store catalog table))
        dir)
    (Catalog.table_names catalog);
  Ok ()

(* Show the dataguide with statistics: the DBA's view of RUNSTATS. *)
let stats_cmd benchmark small data_dirs =
  let* catalog = load_catalog benchmark small data_dirs in
  List.iter
    (fun table ->
      let stats = Catalog.stats catalog table in
      Format.printf "@.Table %s: %d documents, %d elements, %d KB, %d distinct paths@."
        table stats.Xia_storage.Path_stats.doc_count
        stats.Xia_storage.Path_stats.total_elements
        (stats.Xia_storage.Path_stats.total_bytes / 1024)
        (Xia_storage.Path_stats.path_count stats);
      Format.printf "%-55s %8s %8s %9s %8s@." "path" "nodes" "docs" "distinct" "numeric";
      Xia_storage.Path_stats.iter
        (fun info ->
          Format.printf "%-55s %8d %8d %9d %7.0f%%@." (Xia_storage.Path_stats.key info)
            info.Xia_storage.Path_stats.node_count info.Xia_storage.Path_stats.doc_count
            info.Xia_storage.Path_stats.distinct_values
            (100.0
            *. float_of_int info.Xia_storage.Path_stats.numeric_count
            /. float_of_int (max 1 info.Xia_storage.Path_stats.node_count)))
        stats)
    (Catalog.table_names catalog);
  Ok ()

(* ---------- cmdliner wiring ---------- *)

open Cmdliner

let benchmark_arg =
  let bench_conv = Arg.enum [ ("tpox", Tpox); ("xmark", Xmark) ] in
  Arg.(value & opt bench_conv Tpox & info [ "workload"; "w" ] ~doc:"Benchmark: tpox or xmark.")

let small_arg =
  Arg.(value & flag & info [ "small" ] ~doc:"Use a tiny data scale (fast).")

let data_arg =
  Arg.(
    value & opt_all string []
    & info [ "data" ]
        ~doc:"Load a table from a directory of XML files: TABLE=DIR (repeatable).")

let workload_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "workload-file"; "f" ]
        ~doc:"Read the workload from a file (one statement per line, optional 'freq|' prefix; XQuery or SQL/XML).")

let index_arg =
  Arg.(
    value & opt_all string []
    & info [ "index"; "i" ]
        ~doc:"Index to evaluate: TABLE:PATTERN:TYPE, e.g. SECURITY:/Security/Symbol:VARCHAR (repeatable).")

let budget_arg =
  Arg.(value & opt float 4.0 & info [ "budget-mb"; "b" ] ~doc:"Disk budget in MB.")

let algorithm_arg =
  Arg.(
    value
    & opt string "heuristics"
    & info [ "algorithm"; "a" ]
        ~doc:
          "Search algorithm: greedy, heuristics, top-down-lite, top-down-full, dp or all-index.")

let beta_arg =
  Arg.(
    value & opt float 0.10
    & info [ "beta" ] ~doc:"Size-expansion threshold for general indexes.")

let updates_arg =
  Arg.(
    value & opt float 0.0
    & info [ "update-freq" ] ~doc:"Frequency of the DML statements (TPoX only; 0 = none).")

let synthetic_arg =
  Arg.(
    value & opt int 0
    & info [ "synthetic" ] ~doc:"Append N synthetic random-path queries.")

let compress_arg =
  Arg.(
    value
    & opt (enum [ ("auto", None); ("on", Some true); ("off", Some false) ]) None
    & info [ "compress" ]
        ~doc:
          "Workload compression: $(b,on) clusters statements by candidate \
           signature and advises the weighted representatives, $(b,off) \
           advises every statement, $(b,auto) (default) compresses at 256+ \
           statements.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Enable observability and write a Chrome trace_event JSON of the \
           run to $(docv) (load in chrome://tracing or ui.perfetto.dev).")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Enable observability and write a JSON snapshot of pipeline \
           metrics (counters, gauges, latency histograms) to $(docv).")

let verbose_arg = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print the workload.")

let query_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "query"; "q" ] ~doc:"Statement to explain (mini-XQuery).")

let with_recommended_arg =
  Arg.(
    value & flag
    & info [ "with-indexes" ] ~doc:"Also show the plan with all candidates indexed.")

let advise_term =
  Term.(
    const advise_cmd $ benchmark_arg $ small_arg $ data_arg $ workload_file_arg
    $ budget_arg $ algorithm_arg $ beta_arg $ updates_arg $ synthetic_arg
    $ compress_arg $ trace_arg $ metrics_arg $ verbose_arg)

let explain_term =
  Term.(
    const explain_cmd $ benchmark_arg $ small_arg $ data_arg $ query_arg
    $ with_recommended_arg)

let candidates_term =
  Term.(
    const candidates_cmd $ benchmark_arg $ small_arg $ data_arg $ workload_file_arg
    $ updates_arg $ synthetic_arg)

let whatif_term =
  Term.(
    const whatif_cmd $ benchmark_arg $ small_arg $ data_arg $ workload_file_arg
    $ updates_arg $ synthetic_arg $ index_arg)

let eval_workload_arg =
  let bench_conv = Arg.enum [ ("tpox", Tpox); ("xmark", Xmark) ] in
  Arg.(
    value
    & opt (some bench_conv) None
    & info [ "workload"; "w" ]
        ~doc:
          "Restrict evaluation to one benchmark's cases (default: all; the \
           synthetic case rides with tpox).")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          "Write the machine-readable evaluation report (one entry object \
           per line) to $(docv); $(b,-) writes it to stdout.")

let perturb_arg =
  Arg.(
    value & opt float 1.0
    & info [ "perturb" ] ~docv:"FACTOR"
        ~doc:
          "Multiply every index-plan cost by $(docv) during the search phase \
           only; ground truth stays unperturbed, so a broken cost model \
           shows up as regret.  Test hook: the eval ratchet \
           (tools/ratchet.ml) must fail at --perturb 1000.")

let eval_term =
  Term.(
    const eval_cmd $ eval_workload_arg $ small_arg $ json_arg $ perturb_arg
    $ trace_arg $ metrics_arg)

let out_dir_arg =
  Arg.(
    value & opt string "./xia-data"
    & info [ "out"; "o" ] ~doc:"Output directory (one subdirectory per table).")

let generate_term = Term.(const generate_cmd $ benchmark_arg $ small_arg $ out_dir_arg)

let review_term =
  Term.(
    const review_cmd $ benchmark_arg $ small_arg $ data_arg $ workload_file_arg
    $ updates_arg $ synthetic_arg $ index_arg)

let stats_term = Term.(const stats_cmd $ benchmark_arg $ small_arg $ data_arg)

let cmds =
  let cmd name doc term = Cmd.v (Cmd.info name ~doc) Term.(const exit_code $ term) in
  [
    cmd "advise" "Recommend an index configuration." advise_term;
    cmd "explain" "Show candidates and plans for one statement." explain_term;
    cmd "candidates" "Show the candidate set (basic + generalized)." candidates_term;
    cmd "whatif" "Evaluate a user-supplied index configuration (what-if)." whatif_term;
    cmd "eval"
      "Score every search algorithm against the exhaustive optimum (regret) and the \
       executor (predicted vs actual benefit)."
      eval_term;
    cmd "generate" "Write benchmark data to directories of XML files." generate_term;
    cmd "review" "Materialize a configuration and recommend drops (unused or update-swamped)."
      review_term;
    cmd "stats" "Show the dataguide (paths with statistics) of each table." stats_term;
  ]

let () =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level
    (if Array.exists (fun a -> a = "-v" || a = "--verbose") Sys.argv then
       Some Logs.Info
     else Some Logs.Warning);
  let info =
    Cmd.info "xia_advise" ~version:"1.0.0"
      ~doc:"XML Index Advisor with tight optimizer coupling (ICDE 2008 reproduction)"
  in
  exit (Cmd.eval' (Cmd.group info cmds))
