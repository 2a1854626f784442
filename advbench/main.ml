(* The advisor benchmark: seeded inputs, a measured loop over the public
   API, output checks, and a layer-by-layer pass that is traced on request.

     main.exe --workload W --seed N --seconds S --trace 0|1
     main.exe --spec        prints BENCHMARK.json

   The last line of standard output is one JSON object with the keys
   [correct], [attempted], [failed] and [metrics]: the end-to-end metrics
   with [--trace 0], the per-layer metrics with [--trace 1].  NOTES.md says
   why each workload exists and why each number is measured as it is. *)

module Advisor = Xia_advisor.Advisor
module Benefit = Xia_advisor.Benefit
module Candidate = Xia_advisor.Candidate
module Enumeration = Xia_advisor.Enumeration
module Generalize = Xia_advisor.Generalize
module Search = Xia_advisor.Search
module Workload_summary = Xia_advisor.Workload_summary
module Catalog = Xia_index.Catalog
module Index_def = Xia_index.Index_def
module Path_stats = Xia_storage.Path_stats
module Optimizer = Xia_optimizer.Optimizer
module Executor = Xia_optimizer.Executor
module Workload = Xia_workload.Workload
module Ast = Xia_query.Ast

let now = Unix.gettimeofday
let out_dir = ".advbench"

(* ---------- the metric catalogue, printed as BENCHMARK.json ---------- *)

let run_seconds = 15

let workloads =
  [
    ( "zipf-100k",
      "100k Zipf-skewed statements from 256 templates: query parsing and workload \
       compression dominate advise" );
    ( "whatif-2k",
      "2k distinct queries, uncompressed: the benefit cache, batched what-if optimizer \
       and search dominate advise" );
    ( "tpox-dml",
      "TPoX queries and DML over 18k docs: XML parsing and RUNSTATS dominate setup, \
       index upkeep and execution dominate validation" );
  ]

(* name, unit, better, bound *)
let end_to_end =
  [
    ("setup_s", "s", "lower", 0.25);
    ("advise_s", "s", "lower", 0.25);
    ("validate_s", "s", "lower", 0.25);
    ("advise_mwords", "Mwords", "lower", 0.25);
    ("peak_heap_mb", "MB", "lower", 0.25);
    ("actual_speedup", "x", "higher", 0.1);
    ("est_error_pct", "%", "lower", 0.25);
  ]

let layer_extras = function
  | "xml" -> [ ("xml.mb", "MB", "lower") ]
  | "storage" -> [ ("storage.paths", "count", "lower") ]
  | "query" -> [ ("query.statements", "count", "lower") ]
  | "summary" -> [ ("summary.clusters", "count", "lower") ]
  | "enumeration" -> [ ("enumeration.basic", "count", "lower") ]
  | "generalize" -> [ ("generalize.candidates", "count", "lower") ]
  | "benefit" ->
      [
        ("benefit.evaluations", "count", "lower");
        ("benefit.cache_hits", "count", "higher");
        ("benefit.hit_ratio", "ratio", "higher");
        ("benefit.pruned", "count", "higher");
      ]
  | "optimizer" ->
      [ ("optimizer.raw_calls", "count", "lower"); ("optimizer.plans_considered", "count", "lower") ]
  | "search" -> [ ("search.optimizer_calls", "count", "lower") ]
  | "index" -> [ ("index.count", "count", "lower") ]
  | "executor" ->
      [
        ("executor.docs_scanned", "count", "lower");
        ("executor.docs_fetched", "count", "lower");
        ("executor.index_entries", "count", "lower");
        ("executor.sim_cost", "units", "lower");
      ]
  | _ -> []

(* No [optimizer.mwords]: the optimizer only runs under Benefit and
   Search calls, so its allocation is counted with theirs (see Layers). *)
let per_layer =
  List.concat_map
    (fun l ->
      [ (l ^ ".s", "s", "lower"); (l ^ ".calls", "count", "lower") ]
      @ (if l = "optimizer" then [] else [ (l ^ ".mwords", "Mwords", "lower") ])
      @ layer_extras l)
    Layers.names
  @ [ ("other.s", "s", "lower"); ("trace_overhead_pct", "%", "lower") ]

let spec () =
  let q = Printf.sprintf "%S" in
  let obj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> q k ^ ": " ^ v) fields) ^ "}" in
  let block key items = Printf.sprintf "  %S: [\n    %s\n  ]" key (String.concat ",\n    " items) in
  String.concat ",\n"
    [
      "{\n  \"command\": [\"python3\", \"advbench/run.py\"]";
      "  \"paths\": [\"advbench\"]";
      Printf.sprintf "  \"run_seconds\": %d" run_seconds;
      block "workloads" (List.map (fun (n, why) -> obj [ ("name", q n); ("why", q why) ]) workloads);
      block "end_to_end"
        (List.map
           (fun (n, u, b, bound) ->
             obj [ ("name", q n); ("unit", q u); ("better", q b); ("bound", Printf.sprintf "%g" bound) ])
           end_to_end);
      block "per_layer"
        (List.map (fun (n, u, b) -> obj [ ("name", q n); ("unit", q u); ("better", q b) ]) per_layer);
    ]
  ^ "\n}\n"

(* ---------- run accounting ---------- *)

let attempted = ref 0
let failed = ref 0
let problems = ref []
let problem fmt =
  Printf.ksprintf (fun s -> if not (List.mem s !problems) then problems := s :: !problems) fmt

(* Every later value of a deterministic quantity must equal the first. *)
let same what first v =
  match !first with
  | None -> first := Some v
  | Some f -> if f <> v then problem "%s differs between repetitions" what

(* ---------- validation ---------- *)

(* What a recommendation is compared by. *)
type signature = { keys : string list; est_speedup : float; base : float; new_cost : float }

let signature_of (r : Advisor.recommendation) =
  {
    keys = List.map Index_def.logical_key (Advisor.indexes r);
    est_speedup = r.est_speedup;
    base = r.base_cost;
    new_cost = r.new_cost;
  }

(* One entry per distinct statement, weighted by its summed frequency:
   running a read once and weighting it is exact. *)
type vstmt = { stmt : Ast.statement; weight : float; dml : bool }

let validation_workload (w : Workload.t) =
  let index = Hashtbl.create 1024 and order = ref [] in
  List.iter
    (fun (it : Workload.item) ->
      let key = Xia_query.Printer.statement_to_string it.statement in
      match Hashtbl.find_opt index key with
      | Some (s, f) -> Hashtbl.replace index key (s, f +. it.freq)
      | None ->
          order := key :: !order;
          Hashtbl.add index key (it.statement, it.freq))
    w;
  Array.of_list
    (List.rev_map
       (fun key ->
         let stmt, weight = Hashtbl.find index key in
         { stmt; weight; dml = Ast.is_dml stmt })
       !order)

type exec_totals = {
  mutable scanned : int;
  mutable fetched : int;
  mutable entries : int;
  mutable sim_cost : float;
}

let totals = { scanned = 0; fetched = 0; entries = 0; sim_cost = 0.0 }

(* Run every statement once: rows per statement and weighted simulated
   cost.  Indexes are refreshed after each DML statement. *)
let execute cat (vw : vstmt array) =
  let cost = ref 0.0 in
  let rows =
    Array.map
      (fun v ->
        incr attempted;
        match Layers.span "executor" (fun () -> Executor.run_statement cat v.stmt) with
        | r ->
            let m = r.Executor.metrics in
            cost := !cost +. (v.weight *. m.simulated_cost);
            totals.scanned <- totals.scanned + m.docs_scanned;
            totals.fetched <- totals.fetched + m.docs_fetched;
            totals.entries <- totals.entries + m.index_entries;
            totals.sim_cost <- totals.sim_cost +. m.simulated_cost;
            if v.dml then Layers.span "index" (fun () -> Catalog.refresh_indexes cat);
            r.rows
        | exception e ->
            incr failed;
            problem "statement failed: %s" (Printexc.to_string e);
            -1)
      vw
  in
  (rows, !cost)

(* One validation: the workload without indexes, then with the recommended
   indexes materialized.  [side] runs each of the two sides; [fresh]
   supplies the catalog for the indexed side, a reload when DML changed
   the data.  Returns the actual speedup. *)
let validate ~side ~fresh cat vw defs =
  let rows0, cost0 = side (fun () -> execute cat vw) in
  let cat = fresh cat in
  let rows1, cost1 =
    side (fun () ->
        List.iter
          (fun d -> Layers.span "index" (fun () -> ignore (Catalog.create_index cat d)))
          defs;
        let r = execute cat vw in
        Layers.span "index" (fun () -> Catalog.drop_all_indexes cat);
        r)
  in
  if rows0 <> rows1 then problem "rows differ with and without the recommended indexes";
  if cost1 > 0.0 then cost0 /. cost1 else 1.0

(* ---------- the advisor, layer by layer ---------- *)

type counts = {
  statements : int;
  clusters : int;
  basic : int;
  candidates : int;
  evaluations : int;
  cache_hits : int;
  pruned : int;
  search_calls : int;
}

(* [Advisor.advise] with greedy-heuristics, one public call per layer. *)
let decomposed_advise ~compress ~budget cat wl_path =
  let wl = Layers.span "query" (fun () -> Workload.of_file wl_path) in
  let compress =
    match compress with Some b -> b | None -> List.length wl >= Advisor.compress_threshold
  in
  let summary =
    Layers.span "summary" (fun () ->
        if compress then Workload_summary.compress cat wl else Workload_summary.raw wl)
  in
  let set =
    Layers.span "enumeration" (fun () ->
        Enumeration.basic_candidates cat (Workload_summary.workload summary))
  in
  let basic = List.length (Candidate.basics set) in
  Layers.span "generalize" (fun () -> Generalize.close set);
  let ev = Layers.span "benefit" (fun () -> Benefit.of_summary ~domains:1 cat summary) in
  let outcome = Layers.span "search" (fun () -> Search.greedy_heuristics ev set ~budget) in
  let base, new_cost =
    Layers.span "benefit" ~calls:2 (fun () ->
        (Benefit.base_workload_cost ev, Benefit.workload_cost ev outcome.config))
  in
  let signature =
    {
      keys = List.map (fun (c : Candidate.t) -> Index_def.logical_key c.def) outcome.config;
      est_speedup = (if new_cost > 0.0 then base /. new_cost else 1.0);
      base;
      new_cost;
    }
  in
  ( signature,
    List.map (fun (c : Candidate.t) -> c.def) outcome.config,
    {
      statements = List.length wl;
      clusters = Workload_summary.cluster_count summary;
      basic;
      candidates = Candidate.cardinality set;
      evaluations = Benefit.evaluations ev;
      cache_hits = Benefit.cache_hits ev;
      pruned = Benefit.pruned_count ev;
      search_calls = outcome.optimizer_calls;
    } )

let optimizer_counts () =
  let c = Optimizer.counters in
  ( Atomic.get c.optimize_calls,
    Atomic.get c.optimize_calls + Atomic.get c.batch_setup_saved,
    Atomic.get c.plans_considered )

(* ---------- the run ---------- *)

let mwords w = w /. 1e6

(* The reference kernel: fixed allocation-heavy work (a 200k-entry hash
   table of fresh strings, then sorting a 200k-element list), independent
   of the program under test.  On a shared 2-vCPU VM the speed
   of allocation-heavy code drifts by up to 2x for seconds to minutes at a
   time, with CPU time rising alongside wall time, while the ratio of the
   program's time to this kernel's time right around it stays within a
   few percent.  Each timed sample is therefore divided by the mean of the
   kernel runs just before and just after it, and a metric is the median
   of those ratios times [reference_s]: seconds on a machine where the
   kernel takes [reference_s].  A change to the program moves only the
   numerators. *)
let reference_s = 0.1

let reference () =
  let t0 = now () in
  let h = Hashtbl.create 16 in
  let acc = ref 0 in
  for i = 0 to 200_000 do
    let k = (i * 7919) land 0xFFFFF in
    Hashtbl.replace h k (string_of_int i);
    acc := !acc + String.length (Hashtbl.find h k)
  done;
  let l = List.init 200_000 (fun i -> (i * 104729) mod 200_003) in
  let l = List.sort compare l in
  ignore (Sys.opaque_identity (!acc, l));
  now () -. t0

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let run ~workload ~seed ~seconds ~trace =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let g, budget, wl_path = Gen.prepare ~dir:out_dir workload seed in
  let stem = Filename.remove_extension wl_path in
  let wl = Workload.of_file wl_path in
  let vw = validation_workload wl in
  let has_dml = Array.exists (fun v -> v.dml) vw in
  Printf.printf "%s seed %d: %d statements (%d distinct), %.2f MB of XML, budget %d bytes\n%!"
    workload seed (List.length wl) (Array.length vw)
    (float_of_int (Gen.xml_bytes g) /. 1e6)
    budget;
  (* Each load drops the previous catalog and compacts, before and after,
     so the heap high-water mark does not grow with the repetitions. *)
  let load () =
    Gc.compact ();
    let cat, dt = Layers.phase "setup" (fun () -> Gen.load g.tables) in
    Gc.compact ();
    (cat, dt)
  in
  let advise cat =
    incr attempted;
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let r =
      Advisor.advise ~domains:1 ?compress:g.compress cat (Workload.of_file wl_path) ~budget
        Advisor.Greedy_heuristics
    in
    let dt = now () -. t0 in
    (r, dt, Gc.minor_words () -. w0)
  in
  let rec_first = ref None and speedup_first = ref None in
  let last = ref None and speedup = ref 1.0 in
  let warm_words = ref nan in
  let advise_rep cat =
    let r, dt, words = advise cat in
    same "recommendation" rec_first (signature_of r);
    last := Some r;
    (* Candidate names carry a process-wide sequence number, so after
       thousands of runs an advise allocates a few words more for the longer
       names; the reported figure is always the first warm run's. *)
    if Float.is_nan !warm_words then warm_words := words
    else if Float.abs (words -. !warm_words) > 1e-2 *. !warm_words then
      problem "advise minor words differ between repetitions";
    dt
  in
  (* One validation; [cat] is the catalog of the unindexed side, [base]
     unless the workload has DML, and then the indexed side reloads and
     passes the load's seconds to [on_load]. *)
  let validate_rep ?(on_load = ignore) ~side base cat =
    let defs = match !last with Some r -> Advisor.indexes r | None -> [] in
    let fresh =
      if has_dml then fun _ ->
        let cat, dt = load () in
        on_load dt;
        cat
      else fun _ -> base
    in
    let s = validate ~side ~fresh cat vw defs in
    same "actual speedup" speedup_first s;
    speedup := s
  in
  (* A fixed first cycle: one load, a warm-up advise (the first advise on a
     catalog fills lazy caches and allocates more), one warm advise, one
     validation.  Allocation and the heap high-water mark are read after
     it, so they come from the same work in every run.  Later advise runs
     reuse this catalog, which nothing changes; validation does too,
     except that with DML each side starts from a fresh load. *)
  let base, _ = load () in
  let r0, _, warmup_words = advise base in
  same "recommendation" rec_first (signature_of r0);
  ignore (advise_rep base);
  validate_rep ~side:(fun f -> f ()) base (if has_dml then fst (load ()) else base);
  let peak_heap_mb = float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6 in
  (* Then timed cycles until the time is up.  A sample repeats its
     operation for at least [window] seconds (many loads or advise runs when
     they are short) and is followed by a reference run, so it sits between
     two.  A cycle takes two advise samples and one setup sample; the two
     sides of a validation are separate samples.  Validation runs in a
     cycle while it has taken at most 60% of the loop, and at least three
     times. *)
  let window = 0.3 in
  let previous_ref = ref (reference ()) in
  let samples = Hashtbl.create 4 in
  let record name t =
    let r = reference () in
    let ratio = t /. ((!previous_ref +. r) /. 2.0) in
    previous_ref := r;
    let raws, ratios = Option.value ~default:([], []) (Hashtbl.find_opt samples name) in
    Hashtbl.replace samples name (t :: raws, ratio :: ratios)
  in
  let paired name op =
    let t0 = now () in
    let rec go n total =
      let total = total +. op () in
      if now () -. t0 < window then go (n + 1) total else total /. float_of_int n
    in
    record name (go 1 0.0)
  in
  let sides = ref 0 in
  let side f =
    let t0 = now () in
    let r = f () in
    record (if !sides mod 2 = 0 then "unindexed" else "indexed") (now () -. t0);
    incr sides;
    r
  in
  let last_load = ref base in
  let loop_start = now () in
  let deadline = loop_start +. float_of_int seconds in
  let validating = ref 0.0 and cycles = ref 0 in
  while !cycles < 2 || !sides < 6 || now () < deadline do
    paired "advise" (fun () -> advise_rep base);
    paired "advise" (fun () -> advise_rep base);
    paired "setup" (fun () ->
        let cat, dt = load () in
        last_load := cat;
        dt);
    if !sides < 6 || !validating <= 0.6 *. (now () -. loop_start) then begin
      let t0 = now () in
      validate_rep ~on_load:(record "setup") ~side base (if has_dml then !last_load else base);
      validating := !validating +. (now () -. t0)
    end;
    last_load := base;
    incr cycles
  done;
  let median_of pick name = median (pick (Hashtbl.find samples name)) in
  let raw name = median_of fst name in
  let in_reference name = median_of snd name *. reference_s in
  Printf.printf
    "median seconds: setup %.4f, advise %.4f, validate %.4f + %.4f; last reference run %.4f\n"
    (raw "setup") (raw "advise") (raw "unindexed") (raw "indexed") !previous_ref;
  let r = match !last with Some r -> r | None -> failwith "no advise ran" in
  let est_error = 100.0 *. Float.abs ((r.est_speedup /. !speedup) -. 1.0) in
  Printf.printf
    "%d timed cycles: %d setup, %d advise and %d validation samples; the warm-up advise allocated %.3f Mwords more\n"
    !cycles
    (List.length (fst (Hashtbl.find samples "setup")))
    (List.length (fst (Hashtbl.find samples "advise")))
    (!sides / 2)
    (mwords (warmup_words -. !warm_words));
  Printf.printf "recommendation: %d indexes, estimated speedup %.4f, actual %.4f\n%!"
    (List.length (Advisor.indexes r)) r.est_speedup !speedup;
  let e2e =
    [
      ("setup_s", in_reference "setup");
      ("advise_s", in_reference "advise");
      ("validate_s", in_reference "unindexed" +. in_reference "indexed");
      ("advise_mwords", mwords !warm_words);
      ("peak_heap_mb", peak_heap_mb);
      ("actual_speedup", !speedup);
      ("est_error_pct", est_error);
    ]
  in
  (* The same work once more, one public call per layer: a check of the
     decomposition either way, traced and validated with [--trace 1]. *)
  Gc.compact ();
  if trace then Layers.start ();
  totals.scanned <- 0;
  totals.fetched <- 0;
  totals.entries <- 0;
  totals.sim_cost <- 0.0;
  let cat, t_setup = load () in
  let o0, raw0, plans0 = optimizer_counts () in
  let (signature, defs, counts), t_advise =
    Layers.phase "advise" (fun () -> decomposed_advise ~compress:g.compress ~budget cat wl_path)
  in
  let o1, raw1, plans1 = optimizer_counts () in
  let t_validate = ref 0.0 in
  let side f =
    let r, t = Layers.phase "validate" f in
    t_validate := !t_validate +. t;
    r
  in
  let fresh cat = if has_dml then Xia_obs.Obs.with_enabled false (fun () -> fst (load ())) else cat in
  if Some signature <> !rec_first then
    problem "the layer-by-layer recommendation differs from Advisor.advise";
  if trace && validate ~side ~fresh cat vw defs <> !speedup then
    problem "the layer-by-layer actual speedup differs";
  let layer_metrics =
    if not trace then []
    else begin
      let report = Layers.stop () in
      Xia_obs.Trace.write_file (stem ^ ".trace.json") (Xia_obs.Trace.export_chrome report.spans);
      List.iter
        (fun (p, share) ->
          Printf.printf "traced %s: %.1f%% in named layers\n" p (100.0 *. share);
          if share < 0.9 then problem "named layers cover %.1f%% of %s" (100.0 *. share) p)
        report.coverage;
      let traced = t_setup +. t_advise +. !t_validate in
      let untraced = raw "setup" +. raw "advise" +. raw "unindexed" +. raw "indexed" in
      let f = float_of_int in
      let extras =
        [
          ("xml.mb", f (Gen.xml_bytes g) /. 1e6);
          ( "storage.paths",
            f
              (List.fold_left
                 (fun acc t -> acc + Path_stats.path_count (Catalog.stats cat t))
                 0 (Catalog.table_names cat)) );
          ("query.statements", f counts.statements);
          ("summary.clusters", f counts.clusters);
          ("enumeration.basic", f counts.basic);
          ("generalize.candidates", f counts.candidates);
          ("benefit.evaluations", f counts.evaluations);
          ("benefit.cache_hits", f counts.cache_hits);
          ( "benefit.hit_ratio",
            if counts.cache_hits + counts.evaluations = 0 then 0.0
            else f counts.cache_hits /. f (counts.cache_hits + counts.evaluations) );
          ("benefit.pruned", f counts.pruned);
          ("optimizer.raw_calls", f (raw1 - raw0));
          ("optimizer.plans_considered", f (plans1 - plans0));
          ("search.optimizer_calls", f counts.search_calls);
          ("index.count", f (List.length defs));
          ("executor.docs_scanned", f totals.scanned);
          ("executor.docs_fetched", f totals.fetched);
          ("executor.index_entries", f totals.entries);
          ("executor.sim_cost", totals.sim_cost);
          ("other.s", report.other_s);
          ("trace_overhead_pct", 100.0 *. ((traced /. untraced) -. 1.0));
        ]
      in
      let layer_values =
        List.concat_map
          (fun (l, (t : Layers.layer_total)) ->
            let calls = if l = "optimizer" then o1 - o0 else t.n_calls in
            [ (l ^ ".s", t.self_s); (l ^ ".calls", f calls); (l ^ ".mwords", mwords t.self_words) ])
          report.layers
      in
      List.map
        (fun (name, unit_, _) ->
          let v =
            match List.assoc_opt name layer_values with
            | Some v -> v
            | None -> List.assoc name extras
          in
          (name, unit_, v))
        per_layer
    end
  in
  if trace then layer_metrics
  else List.map (fun (name, unit_, _, _) -> (name, unit_, List.assoc name e2e)) end_to_end

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref run_seconds and trace = ref 0 in
  let print_spec = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  " ^ String.concat ", " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_int seconds, "S  length of the measured loop");
      ("--trace", Arg.Set_int trace, "0|1  report per-layer metrics from a traced pass");
      ("--spec", Arg.Set print_spec, " print BENCHMARK.json and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !print_spec then print_string (spec ())
  else begin
    if not (List.mem_assoc !workload workloads) then begin
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
    end;
    if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
      prerr_endline "--seconds must be at least 1 and --trace 0 or 1";
      exit 2
    end;
    let metrics = run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) in
    List.iter (fun (n, u, v) -> Printf.printf "%-28s %14.6f %s\n" n v u) metrics;
    List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) (List.rev !problems);
    Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
      (!problems = []) !attempted !failed
      (String.concat ", "
         (List.map
            (fun (n, u, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
            metrics))
  end
