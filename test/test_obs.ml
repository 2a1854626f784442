(* The observability layer (lib/obs).

   The load-bearing suite is differential: running the full advisor pipeline
   with tracing+metrics enabled must produce bit-identical results to running
   it disabled — same recommended configuration, same costs, same evaluator
   counters.  Instrumentation only ever reads the clock and bumps
   observability state, never advisor state.

   The property suite drives random span trees and checks the flushed output
   is well-nested and monotonic, which trace.ml promises by construction.  The Chrome exporter and the
   metrics registry get deterministic unit locks. *)

module A = Xia_advisor.Advisor
module B = Xia_advisor.Benefit
module C = Xia_advisor.Candidate
module S = Xia_advisor.Search
module Cat = Xia_index.Catalog
module Obs = Xia_obs.Obs
module Trace = Xia_obs.Trace
module Metrics = Xia_obs.Metrics

let tc name f = Alcotest.test_case name `Quick f

(* A registered counter's value, read from a metrics snapshot. *)
let counter_value name =
  match List.assoc name (Metrics.snapshot ()) with
  | Metrics.Counter_v n -> n
  | _ -> Alcotest.failf "%s is not a counter" name

(* ------------------------------------------------- differential harness -- *)

let tiny_workload catalog =
  Xia_workload.Tpox.workload ()
  @ Xia_workload.Synthetic.workload ~seed:11 catalog (Cat.table_names catalog) 8

let config_ids (o : S.outcome) = List.map (fun (c : C.t) -> c.C.id) o.S.config

(* Everything a caller can observe from one full advisor run: the
   recommendation itself plus the evaluator's work counters. *)
type fingerprint = {
  ids : int list;
  size : int;
  benefit : float;
  optimizer_calls : int;
  base_cost : float;
  new_cost : float;
  est_speedup : float;
  evaluations : int;
  cache_hits : int;
}

let fingerprint algorithm =
  let catalog = Lazy.force Helpers.shared_catalog in
  let workload = tiny_workload catalog in
  let session = A.create_session catalog workload in
  let all = A.session_advise session ~budget:max_int A.All_index in
  let r = A.session_advise session ~budget:(all.A.outcome.S.size / 2) algorithm in
  {
    ids = config_ids r.A.outcome;
    size = r.A.outcome.S.size;
    benefit = r.A.outcome.S.benefit;
    optimizer_calls = r.A.outcome.S.optimizer_calls;
    base_cost = r.A.base_cost;
    new_cost = r.A.new_cost;
    est_speedup = r.A.est_speedup;
    evaluations = B.evaluations session.A.evaluator;
    cache_hits = B.cache_hits session.A.evaluator;
  }

let check_fingerprint label (a : fingerprint) (b : fingerprint) =
  Alcotest.(check (list int)) (label ^ " config") a.ids b.ids;
  Alcotest.(check int) (label ^ " size") a.size b.size;
  Alcotest.(check bool) (label ^ " benefit") true (Float.equal a.benefit b.benefit);
  Alcotest.(check int) (label ^ " optimizer calls") a.optimizer_calls b.optimizer_calls;
  Alcotest.(check bool) (label ^ " base cost") true (Float.equal a.base_cost b.base_cost);
  Alcotest.(check bool) (label ^ " new cost") true (Float.equal a.new_cost b.new_cost);
  Alcotest.(check bool) (label ^ " est speedup") true
    (Float.equal a.est_speedup b.est_speedup);
  Alcotest.(check int) (label ^ " evaluations") a.evaluations b.evaluations;
  Alcotest.(check int) (label ^ " cache hits") a.cache_hits b.cache_hits

let differential_tests =
  let case algorithm =
    tc (A.algorithm_name algorithm ^ ": enabled = disabled") (fun () ->
        let off = fingerprint algorithm in
        let on =
          Obs.with_enabled true (fun () ->
              Fun.protect ~finally:(fun () -> ignore (Trace.flush ())) (fun () -> fingerprint algorithm))
        in
        check_fingerprint (A.algorithm_name algorithm) off on)
  in
  List.map case [ A.Greedy_heuristics; A.Top_down_full; A.Dynamic_programming ]

let switch_tests =
  [
    tc "disabled runs record no spans" (fun () ->
        ignore (Trace.flush ());
        ignore (fingerprint A.Greedy);
        Alcotest.(check int) "no spans" 0 (List.length (Trace.flush ())));
    tc "enabled runs record pipeline spans and metrics" (fun () ->
        ignore (Trace.flush ());
        ignore (Obs.with_enabled true (fun () -> fingerprint A.Greedy_heuristics));
        let names =
          List.sort_uniq compare
            (List.map (fun (s : Trace.span) -> s.Trace.name) (Trace.flush ()))
        in
        List.iter
          (fun expected ->
            Alcotest.(check bool) ("span " ^ expected) true (List.mem expected names))
          [
            "advisor.session_advise"; "enumeration.candidates"; "generalize.close";
            "benefit.workload_cost"; "search.all_index"; "search.greedy_heuristics";
          ];
        Alcotest.(check bool) "benefit.evaluations counted" true
          (counter_value "benefit.evaluations" > 0));
    tc "with_enabled restores the switch when its body raises" (fun () ->
        let saved = Obs.on () in
        Fun.protect
          ~finally:(fun () -> Obs.set_enabled saved)
          (fun () ->
            List.iter
              (fun before ->
                Obs.set_enabled before;
                (match
                   Obs.with_enabled (not before) (fun () ->
                       Alcotest.(check bool) "forced inside" (not before) (Obs.on ());
                       raise Exit)
                 with
                | () -> Alcotest.fail "the body's exception was swallowed"
                | exception Exit -> ());
                Alcotest.(check bool) "restored after the raise" before (Obs.on ()))
              [ false; true ]));
  ]

(* ------------------------------------------ span well-nestedness (qcheck) -- *)

(* Random span trees; the flushed result must be well-nested (no partial
   interval overlap) with close-order stop times monotone.  The tree
   shapes come from a seeded PRNG so failures replay. *)
let span_shape_prop =
  QCheck.Test.make ~count:20 ~name:"spans flush well-nested and monotonic"
    QCheck.(make Gen.(int_range 0 10_000))
    (fun seed ->
      ignore (Trace.flush ());
      Obs.with_enabled true (fun () ->
          List.iter
            (fun salt ->
              let st = Random.State.make [| seed; salt |] in
              let rec go depth =
                Trace.with_span
                  ~args:(fun () -> [ ("depth", string_of_int depth) ])
                  (Printf.sprintf "s%d.d%d" salt depth)
                  (fun () ->
                    let kids = if depth >= 3 then 0 else Random.State.int st 3 in
                    for _ = 1 to kids do
                      go (depth + 1)
                    done)
              in
              for _ = 1 to 1 + Random.State.int st 3 do
                go 0
              done)
            [ 0; 1; 2; 99 ]);
      let spans = Trace.flush () in
      (* Flushed order is exactly open order (it cannot depend on clock
         granularity): open_seq strictly increases in flush order. *)
      let rec open_ordered = function
        | (a : Trace.span) :: (b :: _ as rest) -> a.Trace.open_seq < b.Trace.open_seq && open_ordered rest
        | _ -> true
      in
      let by_close = List.sort (fun (a : Trace.span) b -> compare a.Trace.seq b.Trace.seq) spans in
      let rec stops_monotone = function
        | (a : Trace.span) :: (b :: _ as rest) -> a.Trace.stop_s <= b.Trace.stop_s && stops_monotone rest
        | _ -> true
      in
      let well_nested =
        List.for_all
          (fun (a : Trace.span) ->
            List.for_all
              (fun (b : Trace.span) ->
                (* partial overlap — a opens, b opens, a closes, b closes, all
                   strictly — is the one forbidden shape *)
                not
                  (a.Trace.start_s < b.Trace.start_s
                  && b.Trace.start_s < a.Trace.stop_s
                  && a.Trace.stop_s < b.Trace.stop_s))
              spans)
          spans
      in
      spans <> [] && open_ordered spans
      && List.for_all (fun (s : Trace.span) -> s.Trace.start_s <= s.Trace.stop_s) spans
      && stops_monotone by_close && well_nested)

(* --------------------------------------------------------- exporter locks -- *)

let sample_spans =
  [
    {
      Trace.name = "outer"; args = []; seq = 2; open_seq = 1;
      depth = 0; start_s = 1.0; stop_s = 2.0;
    };
    {
      Trace.name = "inner"; args = [ ("k", "v") ]; seq = 1;
      open_seq = 2; depth = 1; start_s = 1.25; stop_s = 1.5;
    };
  ]

let exporter_tests =
  [
    tc "chrome export is regression-locked" (fun () ->
        Alcotest.(check string) "chrome"
          ("{\"traceEvents\":[\n\
            {\"name\":\"outer\",\"cat\":\"xia\",\"ph\":\"X\",\"ts\":1000000.0,\"dur\":1000000.0,\"pid\":0,\"tid\":0},\n\
            {\"name\":\"inner\",\"cat\":\"xia\",\"ph\":\"X\",\"ts\":1250000.0,\"dur\":250000.0,\"pid\":0,\"tid\":0,\"args\":{\"k\":\"v\"}}\n\
            ]}\n")
          (Trace.export_chrome sample_spans));
    tc "json strings are escaped" (fun () ->
        let spans =
          [
            {
              Trace.name = "quo\"te"; args = [ ("a", "b\\c") ]; seq = 1;
              open_seq = 1; depth = 0; start_s = 0.0; stop_s = 0.0;
            };
          ]
        in
        let out = Trace.export_chrome spans in
        let has_sub needle hay =
          let n = String.length needle and m = String.length hay in
          let rec scan i = i + n <= m && (String.sub hay i n = needle || scan (i + 1)) in
          scan 0
        in
        Alcotest.(check bool) "name escaped" true (has_sub {|"quo\"te"|} out);
        Alcotest.(check bool) "arg escaped" true (has_sub {|"b\\c"|} out));
  ]

(* --------------------------------------------------------------- metrics -- *)

let metrics_tests =
  [
    tc "counter: incr/add accumulate; re-registration shares state" (fun () ->
        let c = Metrics.counter "test_obs.counter" in
        let base = counter_value "test_obs.counter" in
        Metrics.incr c;
        Metrics.add (Metrics.counter "test_obs.counter") 4;
        Alcotest.(check int) "value" (base + 5) (counter_value "test_obs.counter"));
    tc "kind clash raises Invalid_argument" (fun () ->
        ignore (Metrics.counter "test_obs.clash");
        match Metrics.gauge "test_obs.clash" with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    tc "histogram buckets observations by bound" (fun () ->
        let h = Metrics.histogram ~bounds_us:[| 10.; 100. |] "test_obs.hist" in
        Metrics.observe h 5.0;
        Metrics.observe h 50.0;
        Metrics.observe h 5000.0;
        (* 5ms lands in the implicit overflow bucket *)
        match List.assoc "test_obs.hist" (Metrics.snapshot ()) with
        | Metrics.Histogram_v { count; sum_us; buckets } ->
            Alcotest.(check int) "count" 3 count;
            Alcotest.(check int) "sum" 5055 sum_us;
            Alcotest.(check (list int)) "per-bucket" [ 1; 1; 1 ]
              (List.map snd buckets);
            Alcotest.(check bool) "overflow bound" true
              (Float.equal infinity (fst (List.nth buckets 2)))
        | _ -> Alcotest.fail "expected a histogram"
        | exception Not_found -> Alcotest.fail "histogram not in snapshot");
    tc "json serialization is regression-locked" (fun () ->
        Alcotest.(check string) "json"
          ("{\"metrics\":[\n\
            {\"name\":\"c\",\"type\":\"counter\",\"value\":3},\n\
            {\"name\":\"g\",\"type\":\"gauge\",\"value\":1.5},\n\
            {\"name\":\"h\",\"type\":\"histogram\",\"count\":2,\"sum_us\":30,\"buckets\":[{\"le_us\":20,\"n\":1},{\"le_us\":\"inf\",\"n\":1}]}\n\
            ]}\n")
          (Metrics.to_json
             [
               ("c", Metrics.Counter_v 3);
               ("g", Metrics.Gauge_v 1.5);
               ( "h",
                 Metrics.Histogram_v
                   { count = 2; sum_us = 30; buckets = [ (20., 1); (infinity, 1) ] } );
             ]));
  ]

let suites =
  [
    ("obs.differential", differential_tests);
    ("obs.switch", switch_tests);
    Helpers.qsuite "obs.qcheck" [ span_shape_prop ];
    ("obs.exporters", exporter_tests);
    ("obs.metrics", metrics_tests);
  ]
