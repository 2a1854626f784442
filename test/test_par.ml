(* Tests for the Par work pool, the determinism of the parallel what-if
   evaluator, and the regressions fixed alongside it (catalog exception
   safety, DP small-budget clamp). *)

module A = Xia_advisor.Advisor
module R = Xia_advisor.Report
module B = Xia_advisor.Benefit
module C = Xia_advisor.Candidate
module S = Xia_advisor.Search
module En = Xia_advisor.Enumeration
module Par = Xia_par.Par
module Cat = Xia_index.Catalog
module O = Xia_optimizer.Optimizer
module W = Xia_workload.Workload
module Obs = Xia_obs.Obs
module Trace = Xia_obs.Trace

let tc name f = Alcotest.test_case name `Quick f

exception Boom of int

let pool_tests =
  [
    tc "map matches sequential map" (fun () ->
        let arr = Array.init 100 (fun i -> i) in
        let expected = Array.map (fun x -> (x * x) + 1) arr in
        List.iter
          (fun domains ->
            Alcotest.(check (array int))
              (Printf.sprintf "domains=%d" domains)
              expected
              (Par.map ~domains (fun x -> (x * x) + 1) arr))
          [ 1; 2; 4; 16 ]);
    tc "map on empty and singleton arrays" (fun () ->
        Alcotest.(check (array int)) "empty" [||] (Par.map ~domains:4 succ [||]);
        Alcotest.(check (array int)) "one" [| 8 |] (Par.map ~domains:4 succ [| 7 |]));
    tc "map_list preserves order" (fun () ->
        let l = List.init 50 string_of_int in
        Alcotest.(check (list string))
          "same" l
          (Par.map_list ~domains:4 Fun.id l));
    tc "smallest-index exception is re-raised" (fun () ->
        let f x = if x mod 3 = 0 && x > 0 then raise (Boom x) else x in
        List.iter
          (fun domains ->
            match Par.map ~domains f (Array.init 40 (fun i -> i)) with
            | _ -> Alcotest.fail "expected Boom"
            | exception Boom i ->
                Alcotest.(check int)
                  (Printf.sprintf "domains=%d" domains)
                  3 i)
          [ 1; 2; 4 ];
        (* The pool survives a failed batch. *)
        Alcotest.(check (array int))
          "usable after" [| 2; 3 |]
          (Par.map ~domains:4 succ [| 1; 2 |]));
    tc "nested maps do not deadlock" (fun () ->
        let result =
          Par.map ~domains:4
            (fun i ->
              Array.fold_left ( + ) 0 (Par.map ~domains:4 (fun j -> i * j) (Array.init 20 Fun.id)))
            (Array.init 10 Fun.id)
        in
        Alcotest.(check (array int))
          "sums" (Array.init 10 (fun i -> i * 190)) result);
    tc "every helper span is recorded before map returns" (fun () ->
        (* Many small batches, each followed by a flush.  A helper span
           recorded after its batch returned lands in a later flush, where it
           starts before that flush's own par.batch span, or in the final
           flush.  Items spin for a varying few microseconds, so helpers
           join at every point of a batch: mid-batch, after the last item
           was claimed, and as the caller returns. *)
        let spin us =
          let t0 = Unix.gettimeofday () in
          while Unix.gettimeofday () -. t0 < float_of_int us *. 1e-6 do () done
        in
        let work spans = List.filter (fun (s : Trace.span) -> s.name = "par.work") spans in
        ignore (Trace.flush ());
        let late =
          Obs.with_enabled true (fun () ->
              List.fold_left
                (fun late b ->
                  ignore (Par.map ~domains:2 (fun x -> spin (b mod 40); x) [| 1; 2; 3; 4 |]);
                  let spans = Trace.flush () in
                  match List.find_opt (fun (s : Trace.span) -> s.name = "par.batch") spans with
                  | None -> late
                  | Some batch ->
                      late
                      + List.length
                          (List.filter
                             (fun (s : Trace.span) -> s.start_s < batch.start_s)
                             (work spans)))
                0 (List.init 2000 Fun.id))
        in
        Unix.sleepf 0.01;
        Alcotest.(check int) "late par.work spans" 0
          (late + List.length (work (Trace.flush ()))));
  ]

(* ---------- parallel evaluator determinism ---------- *)

let tiny_workload catalog =
  Xia_workload.Tpox.workload ()
  @ Xia_workload.Synthetic.workload ~seed:11 catalog (Cat.table_names catalog) 8

let config_ids (o : S.outcome) = List.map (fun (c : C.t) -> c.C.id) o.S.config

let check_same_outcome label (a : S.outcome) (b : S.outcome) =
  Alcotest.(check (list int)) (label ^ " config") (config_ids a) (config_ids b);
  Alcotest.(check int) (label ^ " size") a.S.size b.S.size;
  Alcotest.(check bool)
    (label ^ " benefit")
    true
    (Float.equal a.S.benefit b.S.benefit);
  Alcotest.(check int) (label ^ " calls") a.S.optimizer_calls b.S.optimizer_calls

(* Run one algorithm with a fresh evaluator per domain count; every result
   component (and the evaluator counters) must be bit-for-bit identical. *)
let differential_tests =
  let run_all name search =
    tc (name ^ " identical across domains") (fun () ->
        let catalog = Lazy.force Helpers.shared_catalog in
        let workload = tiny_workload catalog in
        let set = En.candidates catalog workload in
        let outcomes =
          List.map
            (fun domains ->
              let ev = B.create ~domains catalog workload in
              let all = S.all_index ev set in
              let budget = all.S.size / 2 in
              let o = search ev set ~budget in
              (o, B.evaluations ev, B.cache_hits ev))
            [ 1; 2; 4 ]
        in
        match outcomes with
        | (o1, e1, h1) :: rest ->
            List.iter
              (fun (o, e, h) ->
                check_same_outcome name o1 o;
                Alcotest.(check int) (name ^ " evaluations") e1 e;
                Alcotest.(check int) (name ^ " cache hits") h1 h)
              rest
        | [] -> assert false)
  in
  [
    run_all "greedy" (fun ev set ~budget -> S.greedy ev set ~budget);
    run_all "greedy+heuristics" (fun ev set ~budget -> S.greedy_heuristics ev set ~budget);
    run_all "top-down full" (fun ev set ~budget -> S.top_down_full ev set ~budget);
    run_all "dp" S.dynamic_programming;
  ]

let qcheck_differential =
  QCheck.Test.make ~count:5 ~name:"random synthetic workloads: parallel = sequential"
    QCheck.(make Gen.(int_range 1 1000))
    (fun seed ->
      let catalog = Lazy.force Helpers.shared_catalog in
      let workload =
        Xia_workload.Synthetic.workload ~seed catalog (Cat.table_names catalog) 10
      in
      let set = En.candidates catalog workload in
      let outcome domains =
        let ev = B.create ~domains catalog workload in
        let all = S.all_index ev set in
        S.greedy_heuristics ev set ~budget:(max 1 (all.S.size / 2))
      in
      let o1 = outcome 1 and o2 = outcome 2 and o4 = outcome 4 in
      config_ids o1 = config_ids o2
      && config_ids o1 = config_ids o4
      && o1.S.size = o2.S.size
      && o1.S.size = o4.S.size
      && Float.equal o1.S.benefit o2.S.benefit
      && Float.equal o1.S.benefit o4.S.benefit)

(* ---------- regression: exception safety of what-if evaluation ---------- *)

let exception_safety_tests =
  [
    tc "raising statement leaves later evaluations unaffected" (fun () ->
        let catalog = Helpers.fresh_tiny_catalog () in
        let good = W.of_strings [ {|for $s in SECURITY('SDOC')/Security where $s/Symbol = "X" return $s|} ] in
        let bad =
          W.of_strings [ "for $x in NO_SUCH_TABLE/a where $x/b = \"1\" return $x" ]
        in
        let d =
          Xia_index.Index_def.make ~table:"SECURITY"
            ~pattern:(Helpers.pattern "/Security/Symbol")
            ~dtype:Xia_index.Index_def.Dstring ()
        in
        let cost wl defs = (R.evaluate_configuration catalog wl defs).R.new_total in
        let base = cost good [] in
        (* The what-if evaluation of the bad workload raises mid-flight. *)
        (try ignore (cost bad [ d ]) with _ -> ());
        let base' = cost good [] in
        Alcotest.(check bool) "base cost unchanged" true (Float.equal base base'));
  ]

(* ---------- regression: DP with a budget below one granularity unit ---------- *)

let dp_tests =
  [
    tc "small budget still recommends a fitting index" (fun () ->
        let catalog = Lazy.force Helpers.shared_catalog in
        let workload = Xia_workload.Tpox.workload () in
        let set = En.candidates catalog workload in
        let ev = B.create ~domains:1 catalog workload in
        let pool =
          List.filter
            (fun (c : C.t) -> B.individual_benefit ev c > 0.0)
            (C.to_list set)
        in
        match
          List.sort (fun a b -> compare (C.size catalog a) (C.size catalog b)) pool
        with
        | [] -> Alcotest.fail "fixture has no beneficial candidate"
        | smallest :: _ ->
            (* Exactly one index fits. *)
            let budget = C.size catalog smallest in
            let o = S.dynamic_programming ev set ~budget in
            Alcotest.(check bool) "non-empty" true (o.S.config <> []);
            Alcotest.(check bool) "fits" true (o.S.size <= budget);
            (* Sub-page budget: the knapsack capacity in units used to
               truncate to 0; with the clamp the search still runs and
               (since no index is smaller than a page) returns empty. *)
            let tiny = S.dynamic_programming ev set ~budget:(Xia_storage.Cost_params.page_size - 1) in
            Alcotest.(check (list int)) "nothing fits" [] (config_ids tiny));
  ]

let suites =
  [
    ("par.pool", pool_tests);
    ("par.differential", differential_tests);
    Helpers.qsuite "par.qcheck" [ qcheck_differential ];
    ("par.exception-safety", exception_safety_tests);
    ("par.dp-budget", dp_tests);
  ]
