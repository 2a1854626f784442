(* Differential suites for the batched what-if entry point: one
   [Optimizer.optimize_prepared] invocation must produce bit-for-bit the plans
   the from-scratch planner [Optimizer_oracle] produces per statement;
   evaluator counters must be deterministic across runs; and the cost-model
   regressions fixed alongside batching (multi-binding DML [affected],
   stale-candidate rejection) stay fixed. *)

module O = Xia_optimizer.Optimizer
module Plan = Xia_optimizer.Plan
module Index_def = Xia_index.Index_def
module Catalog = Xia_index.Catalog
module W = Xia_workload.Workload
module B = Xia_advisor.Benefit
module C = Xia_advisor.Candidate
module En = Xia_advisor.Enumeration
module S = Xia_advisor.Search

let tc name f = Alcotest.test_case name `Quick f

let xmark_catalog =
  lazy
    (let catalog = Catalog.create () in
     Xia_workload.Xmark.load ~scale:Xia_workload.Xmark.tiny_scale ~seed:7 catalog;
     catalog)

(* (label, catalog, workload) fixtures the differential runs over. *)
let fixtures () =
  let tpox = Lazy.force Helpers.shared_catalog in
  let xmark = Lazy.force xmark_catalog in
  [
    ("tpox", tpox, Xia_workload.Tpox.workload ());
    ("xmark", xmark, Xia_workload.Xmark.workload ());
    ( "synthetic",
      tpox,
      Xia_workload.Synthetic.workload ~seed:5 tpox (Catalog.table_names tpox) 12 );
  ]

let ids_used plan = List.map (fun (d : Index_def.t) -> d.lid) (Plan.indexes_used plan)

let check_plan_equal label (a : Plan.t) (b : Plan.t) =
  Alcotest.(check bool)
    (label ^ " total_cost") true
    (Float.equal a.Plan.total_cost b.Plan.total_cost);
  Alcotest.(check (list int)) (label ^ " indexes used") (ids_used a) (ids_used b);
  List.iter2
    (fun (x : Plan.planned_binding) (y : Plan.planned_binding) ->
      Alcotest.(check bool)
        (label ^ " binding est_cost") true
        (Float.equal x.Plan.est_cost y.Plan.est_cost))
    a.Plan.bindings b.Plan.bindings

(* Virtual configurations to exercise: none, every basic candidate def, and
   each statement's own basics would be redundant — a couple of singletons
   cover the sparse end. *)
let configs_for workload =
  let set = En.candidates workload in
  let all = List.map (fun (c : C.t) -> c.C.def) (C.basics set) in
  let singles = match all with [] -> [] | d :: _ -> [ [ d ] ] in
  [ [] ; all ] @ singles

let differential_tests =
  [
    tc "batched ≡ per-statement, bit for bit" (fun () ->
        List.iter
          (fun (label, catalog, workload) ->
            let stmts =
              Array.of_list
                (List.map (fun (it : W.item) -> it.W.statement) workload)
            in
            List.iter
              (fun virtual_config ->
                let expected =
                  Array.map
                    (fun stmt -> fst (Optimizer_oracle.optimize ~virtual_config catalog stmt))
                    stmts
                in
                let got =
                  O.optimize_prepared ~virtual_config (Array.map (O.prepare catalog) stmts)
                in
                Alcotest.(check int)
                  (label ^ " length") (Array.length expected)
                  (Array.length got);
                Array.iteri
                  (fun i p ->
                    check_plan_equal
                      (Printf.sprintf "%s[%d] cfg=%d" label i (List.length virtual_config))
                      expected.(i) p)
                  got)
              (configs_for workload))
          (fixtures ()));
    tc "batch counters: one invocation, n-1 setups saved" (fun () ->
        let catalog = Lazy.force Helpers.shared_catalog in
        let workload = Xia_workload.Tpox.workload () in
        let stmts =
          Array.of_list (List.map (fun (it : W.item) -> it.W.statement) workload)
        in
        let prepared = Array.map (O.prepare catalog) stmts in
        let calls0 = Atomic.get O.counters.O.optimize_calls in
        let saved0 = Atomic.get O.counters.O.batch_setup_saved in
        ignore (O.optimize_prepared ~virtual_config:[] prepared);
        Alcotest.(check int)
          "one optimize_calls" 1
          (Atomic.get O.counters.O.optimize_calls - calls0);
        Alcotest.(check int)
          "n-1 setups saved"
          (Array.length stmts - 1)
          (Atomic.get O.counters.O.batch_setup_saved - saved0);
        (* Empty batches are free. *)
        Alcotest.(check (array Alcotest.reject))
          "empty batch" [||]
          (O.optimize_prepared ~virtual_config:[] [||]));
  ]

(* ---------- counter determinism across runs ---------- *)

let advise_run catalog workload () =
  let calls0 = Atomic.get O.counters.O.optimize_calls in
  let saved0 = Atomic.get O.counters.O.batch_setup_saved in
  let ev = B.create catalog workload in
  let set = En.candidates workload in
  let all = S.all_index ev set in
  let o = S.greedy_heuristics ev set ~budget:(max 1 (all.S.size / 2)) in
  ignore (B.workload_cost ev o.S.config);
  ( List.map (fun (c : C.t) -> c.C.id) o.S.config,
    B.evaluations ev,
    B.cache_hits ev,
    Atomic.get O.counters.O.optimize_calls - calls0,
    Atomic.get O.counters.O.batch_setup_saved - saved0 )

let determinism_tests =
  [
    tc "evaluations/cache_hits/optimize_calls identical across runs"
      (fun () ->
        let catalog = Lazy.force Helpers.shared_catalog in
        let workload =
          Xia_workload.Tpox.workload ()
          @ Xia_workload.Synthetic.workload ~seed:3 catalog
              (Catalog.table_names catalog) 8
        in
        match
          List.map (advise_run catalog workload) [ (); () ]
        with
        | (cfg1, ev1, h1, c1, s1) :: rest ->
            List.iter
              (fun (cfg, ev, h, c, s) ->
                Alcotest.(check (list int)) "config" cfg1 cfg;
                Alcotest.(check int) "evaluations" ev1 ev;
                Alcotest.(check int) "cache hits" h1 h;
                Alcotest.(check int) "optimize_calls delta" c1 c;
                Alcotest.(check int) "setup_saved delta" s1 s)
              rest;
            (* Batching must beat the per-statement protocol (the ≥5× target
               on the full advise flow is ratcheted by @bench-ratchet; this
               mini-flow is dominated by singleton deltas, so just require a
               clear win). *)
            Alcotest.(check bool)
              (Printf.sprintf "batched %d << raw %d" c1 (c1 + s1))
              true
              (c1 * 2 <= c1 + s1)
        | [] -> assert false);
  ]

(* ---------- regression: multi-binding DML affected estimate ---------- *)

(* Every DML statement form has exactly one locating binding, so the
   multi-binding rule is checked on the oracle's function, and the
   optimizer's prepared estimate against the oracle on a real statement. *)
let affected_of = Optimizer_oracle.affected_docs_of_bindings

let affected_tests =
  [
    tc "affected_docs_of_bindings: min over locating bindings" (fun () ->
        let catalog = Helpers.fresh_tiny_catalog () in
        let del =
          Helpers.statement
            {|delete from SECURITY where /Security[Symbol="BCIIPRC"]|}
        in
        let plan = Helpers.whatif_plan catalog del in
        (match plan.Plan.bindings with
        | [ b ] ->
            (* Single binding: exactly the binding's own estimate (the old
               behavior for this arity). *)
            Alcotest.(check bool)
              "singleton = est_docs" true
              (Float.equal b.Plan.est_docs
                 (affected_of plan.Plan.bindings));
            Alcotest.(check bool)
              "plan agrees" true
              (Float.equal (O.affected_docs (O.prepare catalog del)) b.Plan.est_docs);
            (* Multi-binding statements must take the most selective
               binding's estimate — not silently zero the cost (the old
               [_ -> 0.0] fallback). *)
            let wide = { b with Plan.est_docs = 41.0 } in
            let narrow = { b with Plan.est_docs = 5.0 } in
            Alcotest.(check bool)
              "min over bindings" true
              (Float.equal 5.0 (affected_of [ wide; narrow ]));
            Alcotest.(check bool)
              "never zero when bindings locate docs" true
              (affected_of [ wide; narrow ] > 0.0)
        | _ -> Alcotest.fail "delete should plan exactly one binding");
        Alcotest.(check (float 0.0))
          "no locating binding -> 0" 0.0
          (affected_of []));
  ]

(* ---------- regression: stale candidate sets are rejected ---------- *)

let stale_tests =
  [
    tc "affected index outside the workload raises" (fun () ->
        let catalog = Helpers.fresh_tiny_catalog () in
        let big =
          W.of_strings
            [
              {|for $s in SECURITY('SDOC')/Security where $s/Symbol = "BCIIPRC" return $s|};
              {|for $s in SECURITY('SDOC')/Security where $s/Yield > 4.5 return $s|};
            ]
        in
        let set = En.candidates big in
        (* Evaluator over a 1-statement prefix: candidates affected by
           statement 1 now reference a statement this evaluator has never
           costed.  The old code silently dropped them (undercounting the
           delta); it must fail loudly instead. *)
        let ev = B.create catalog (W.prefix 1 big) in
        let stale =
          List.filter
            (fun (c : C.t) -> C.Int_set.mem 1 c.C.affected)
            (C.basics set)
        in
        Alcotest.(check bool) "fixture has a stale candidate" true (stale <> []);
        Alcotest.check_raises "stale candidate set rejected"
          (Invalid_argument
             "Benefit.sub_config_delta: affected statement index 1 outside \
              the 1-statement workload (stale candidate set?)")
          (fun () -> ignore (B.benefit ev [ List.hd stale ])));
  ]

let suites =
  [
    ("batch.differential", differential_tests);
    ("batch.determinism", determinism_tests);
    ("batch.affected", affected_tests);
    ("batch.stale", stale_tests);
  ]
