(* Workload compression (Workload_summary) and upper-bound pruning tests.

   - Differential: on duplicate-heavy workloads (cost-homogeneous clusters)
     the compressed advisor recommends exactly the raw advisor's indexes,
     across benchmarks.
   - Bounded regret: on a heterogeneous workload (same signatures, different
     constants) the compressed recommendation's true estimated cost stays
     close to the raw recommendation's.
   - Clustering determinism: the signature partition is a stable,
     permutation-insensitive function of the workload.
   - Pruning soundness: every pruned search returns the same outcome as its
     unpruned reference in test/search_oracle.ml, on fresh and shared
     evaluators, and the pruned counter actually fires at scale. *)

module A = Xia_advisor.Advisor
module R = Xia_advisor.Report
module B = Xia_advisor.Benefit
module C = Xia_advisor.Candidate
module S = Xia_advisor.Search
module En = Xia_advisor.Enumeration
module WS = Xia_advisor.Workload_summary
module Cat = Xia_index.Catalog
module W = Xia_workload.Workload
module Synthetic = Xia_workload.Synthetic

let tc name f = Alcotest.test_case name `Quick f

let xmark_catalog =
  lazy
    (let catalog = Cat.create () in
     Xia_workload.Xmark.load ~scale:Xia_workload.Xmark.tiny_scale ~seed:7 catalog;
     catalog)

(* [k] literal copies of every item (fresh labels, same statement value and
   frequency): every cluster is cost-homogeneous by construction. *)
let dup k (wl : W.t) =
  List.concat_map
    (fun (it : W.item) ->
      List.init k (fun i ->
          { it with W.label = Printf.sprintf "%s#%d" it.W.label i }))
    wl

let defs_of (r : A.recommendation) =
  List.map
    (fun (c : C.t) -> Xia_index.Index_def.logical_key c.C.def)
    r.A.outcome.S.config

(* ---------- differential: compressed == raw on homogeneous clusters ------- *)

let differential_case (name, catalog, wl) =
  tc (name ^ ": compressed = raw on duplicate-heavy workload") (fun () ->
      let catalog = Lazy.force catalog in
      let wl = dup 4 wl in
      List.iter
        (fun alg ->
          let budget = 512 * 1024 in
          let raw = A.advise ~compress:false catalog wl ~budget alg in
          let comp = A.advise ~compress:true catalog wl ~budget alg in
          let label what = Printf.sprintf "%s/%s %s" name (A.algorithm_name alg) what in
          Alcotest.(check bool) (label "compressed flag") true comp.A.summary.WS.compressed;
          Alcotest.(check bool)
            (label "fewer clusters") true
            (comp.A.summary.WS.cluster_count < comp.A.summary.WS.statements);
          Alcotest.(check (list string)) (label "identical indexes") (defs_of raw) (defs_of comp);
          Alcotest.(check int) (label "identical size") raw.A.outcome.S.size comp.A.outcome.S.size)
        [ A.Greedy; A.Greedy_heuristics; A.Top_down_full ])

let differential_fixtures =
  [
    ("tpox", Helpers.shared_catalog, Xia_workload.Tpox.workload ());
    ("xmark", xmark_catalog, Xia_workload.Xmark.workload ());
  ]

let synthetic_differential =
  tc "synthetic: compressed = raw on duplicate-heavy workload" (fun () ->
      let catalog = Lazy.force Helpers.shared_catalog in
      let wl =
        dup 4
          (Synthetic.workload ~seed:13 catalog (Cat.table_names catalog) 10)
      in
      let budget = 512 * 1024 in
      let raw = A.advise ~compress:false catalog wl ~budget A.Greedy in
      let comp = A.advise ~compress:true catalog wl ~budget A.Greedy in
      Alcotest.(check (list string)) "identical indexes" (defs_of raw) (defs_of comp))

(* ---------- bounded regret on a heterogeneous workload ------------------- *)

(* Random synthetic queries repeat paths with different constants: clusters
   form (shared signatures) but per-member costs differ, so the compressed
   recommendation may legitimately deviate.  Its TRUE estimated cost over
   the SOURCE workload must still land close to the raw recommendation's,
   and must never be worse than recommending nothing. *)
let bounded_regret =
  tc "heterogeneous workload: bounded regret" (fun () ->
      let catalog = Lazy.force Helpers.shared_catalog in
      let wl =
        Synthetic.skewed_workload ~seed:5 ~alpha:0.9 ~distinct:12 catalog
          (Cat.table_names catalog) 60
      in
      let budget = 256 * 1024 in
      let raw = A.advise ~compress:false catalog wl ~budget A.Greedy in
      let comp = A.advise ~compress:true catalog wl ~budget A.Greedy in
      let cost defs = (R.evaluate_configuration catalog wl defs).R.new_total in
      let base = cost [] in
      let raw_cost = cost (A.indexes raw) in
      let comp_cost = cost (A.indexes comp) in
      Alcotest.(check bool) "raw improves" true (raw_cost <= base);
      Alcotest.(check bool) "compressed improves" true (comp_cost <= base);
      Alcotest.(check bool)
        (Printf.sprintf "regret bounded (raw %.1f, compressed %.1f)" raw_cost
           comp_cost)
        true
        (comp_cost <= raw_cost *. 1.25))

(* ---------- clustering determinism --------------------------------------- *)

(* A statement's cluster key, recomputed afresh: its kind, its target
   tables (DML only) and its signature. *)
let cluster_key (stmt : Xia_query.Ast.statement) =
  let kind, tables =
    match stmt with
    | Xia_query.Ast.Select _ -> (0, [])
    | Insert _ -> (1, Xia_query.Ast.tables stmt)
    | Delete _ -> (2, Xia_query.Ast.tables stmt)
    | Update _ -> (3, Xia_query.Ast.tables stmt)
  in
  (kind, List.sort_uniq compare tables, WS.signature stmt)

(* The clusters, as sorted (cluster key, weight) pairs, must be identical
   across repeated runs and across input permutations.  First-occurrence
   cluster ORDER tracks the permuted input, so the pairs are sorted.  A
   weight sums its members' frequencies in workload order, so a permutation
   may reassociate that sum: across it, keys are compared exactly and
   weights to within a relative 1e-12 (24 terms reassociated move a sum by
   at most a few ulps). *)
let qcheck_clustering =
  QCheck.Test.make ~count:8
    ~name:"signature clustering is deterministic and permutation-insensitive"
    QCheck.(make Gen.(int_range 1 1000))
    (fun seed ->
      let catalog = Lazy.force Helpers.shared_catalog in
      let wl =
        Synthetic.skewed_workload ~seed ~distinct:8 catalog
          (Cat.table_names catalog) 24
      in
      let clusters wl =
        let s = WS.compress catalog wl in
        List.combine
          (List.map (fun (it : W.item) -> cluster_key it.W.statement) (WS.workload s))
          (Array.to_list (WS.weights s))
        |> List.sort compare
      in
      let rng = Random.State.make [| seed + 17 |] in
      let shuffled =
        wl
        |> List.map (fun it -> (Random.State.bits rng, it))
        |> List.sort (fun (a, _) (b, _) -> compare a b)
        |> List.map snd
      in
      let c = clusters wl in
      let close (k, w) (k', w') = k = k' && Float.abs (w -. w') <= 1e-12 *. Float.abs w in
      c = clusters wl && List.equal close c (clusters shuffled))

(* ---------- the per-statement memo against a memo-free oracle ------------ *)

(* The clustering [compress] must produce, recomputed afresh for
   every statement: group by [cluster_key], clusters in first-occurrence
   order, members ascending, the first member as representative,
   frequencies summed in workload order.  Returns each cluster's
   representative and weight. *)
let oracle (wl : W.t) =
  let key = cluster_key in
  let clusters =
    List.fold_left
      (fun (i, clusters) (it : W.item) ->
        let k = key it.W.statement in
        let clusters =
          if List.mem_assoc k clusters then
            List.map
              (fun (k', (members, weight)) ->
                if k' = k then (k', (members @ [ i ], weight +. it.W.freq))
                else (k', (members, weight)))
              clusters
          else clusters @ [ (k, ([ i ], it.W.freq)) ]
        in
        (i + 1, clusters))
      (0, []) wl
    |> snd
  in
  let items = Array.of_list wl in
  (List.map (fun (_, (members, _)) -> items.(List.hd members)) clusters,
   List.map (fun (_, (_, weight)) -> weight) clusters)

let same_statements (a : W.t) (b : W.t) =
  List.equal (fun (x : W.item) (y : W.item) -> x.W.statement == y.W.statement) a b

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_against_oracle what catalog wl =
  let s = WS.compress catalog wl in
  let reps, weights = oracle wl in
  Alcotest.(check (list string))
    (what ^ ": representatives") (W.labels reps) (W.labels (WS.workload s));
  Alcotest.(check bool)
    (what ^ ": representative statements physically the first members'") true
    (same_statements reps (WS.workload s));
  Alcotest.(check bool)
    (what ^ ": weights bit-identical")
    true
    (List.equal same_bits weights (Array.to_list (WS.weights s)))

(* Statements, DML included, each parsed anew: duplicates are structurally
   equal but never physically shared. *)
let separately_parsed () =
  let texts =
    [
      {|for $s in SECURITY('SDOC')/Security where $s/Symbol = "SYM00042" return $s|};
      {|for $s in SECURITY('SDOC')/Security where $s/Symbol = "SYM00007" return $s|};
      {|for $c in CUSTACC('CADOC')/Customer where $c/@id = 1042 return $c/Name|};
      {|update SECURITY set /Security/Price/LastTrade = "99.50" where /Security[Symbol="SYM00042"]|};
      {|delete from SECURITY where /Security[Symbol="SYM00042"]|};
      {|delete from XORDER where /FIXML/Order[@Acct="A1"]|};
      {|insert into XORDER <FIXML><Order ID="X1" Acct="A1"/></FIXML>|};
      {|for $s in SECURITY('SDOC')/Security where $s/Yield > 4.5 return $s|};
    ]
  in
  let picks = [ 0; 1; 0; 3; 2; 0; 4; 5; 3; 6; 1; 7; 6; 2; 0; 5; 7; 4 ] in
  W.of_strings (List.map (List.nth texts) picks)
  |> List.mapi (fun i (it : W.item) -> { it with W.freq = 0.5 +. float_of_int (i mod 5) })

let memo_tests =
  [
    tc "compress = oracle on separately parsed duplicates" (fun () ->
        let catalog = Lazy.force Helpers.shared_catalog in
        let wl = separately_parsed () in
        (match wl with
        | a :: _ :: b :: _ ->
            Alcotest.(check bool) "equal values" true (a.W.statement = b.W.statement);
            Alcotest.(check bool) "not shared" false (a.W.statement == b.W.statement)
        | _ -> Alcotest.fail "short workload");
        check_against_oracle "separately parsed" catalog wl);
    tc "compress = oracle on physically shared duplicates" (fun () ->
        let catalog = Lazy.force Helpers.shared_catalog in
        let wl =
          Synthetic.skewed_workload ~seed:3 ~distinct:16 catalog
            (Cat.table_names catalog) 300
          @ Xia_workload.Tpox.workload_with_updates ~update_freq:2.0 ()
        in
        check_against_oracle "shared" catalog wl);
    tc "enumerate_calls grow by the number of distinct statements" (fun () ->
        let catalog = Lazy.force Helpers.shared_catalog in
        List.iter
          (fun (what, (wl : W.t)) ->
            let distinct =
              List.length (List.sort_uniq compare (List.map (fun (it : W.item) -> it.W.statement) wl))
            in
            let counter = Xia_optimizer.Optimizer.counters.enumerate_calls in
            let before = Atomic.get counter in
            ignore (WS.compress catalog wl);
            Alcotest.(check int) what distinct (Atomic.get counter - before))
          [
            ("separately parsed", separately_parsed ());
            ( "shared",
              Synthetic.skewed_workload ~seed:9 ~distinct:24 catalog
                (Cat.table_names catalog) 1000 );
          ]);
    tc "statement hash reads the whole statement" (fun () ->
        (* Templates over one table differ only past Hashtbl.hash's ten
           meaningful words (it gives these 64 templates 3 values, one per
           table); Ast.hash still tells them apart. *)
        let catalog = Lazy.force Helpers.shared_catalog in
        let pool =
          List.sort_uniq compare
            (List.map
               (fun (it : W.item) -> it.W.statement)
               (Synthetic.workload ~seed:4 catalog (Cat.table_names catalog) 64))
        in
        let distinct_hashes h = List.length (List.sort_uniq compare (List.map h pool)) in
        Alcotest.(check int) "Ast.hash: no collision" (List.length pool)
          (distinct_hashes Xia_query.Ast.hash);
        List.iter
          (fun (it : W.item) ->
            let copy = Helpers.statement (Xia_query.Printer.statement_to_string it.W.statement) in
            Alcotest.(check int) "equal statements, equal hashes"
              (Xia_query.Ast.hash it.W.statement) (Xia_query.Ast.hash copy))
          (separately_parsed ()));
  ]

let qcheck_memo_oracle =
  QCheck.Test.make ~count:12 ~name:"compress = memo-free oracle under shuffles"
    QCheck.(make Gen.(int_range 1 1000))
    (fun seed ->
      let catalog = Lazy.force Helpers.shared_catalog in
      let wl =
        separately_parsed ()
        @ Synthetic.skewed_workload ~seed ~distinct:10 catalog (Cat.table_names catalog) 40
      in
      let rng = Random.State.make [| seed |] in
      let shuffled =
        wl
        |> List.map (fun it -> (Random.State.bits rng, it))
        |> List.sort (fun (a, _) (b, _) -> compare a b)
        |> List.map snd
      in
      let s = WS.compress catalog shuffled in
      let reps, weights = oracle shuffled in
      W.labels reps = W.labels (WS.workload s)
      && same_statements reps (WS.workload s)
      && List.equal same_bits weights (Array.to_list (WS.weights s)))

(* ---------- pruning soundness -------------------------------------------- *)

let config_ids (o : S.outcome) =
  List.map (fun (c : C.t) -> c.C.id) o.S.config

(* The pruned searches and their unpruned references in test/search_oracle.ml. *)
let pruned_searches =
  [
    (A.Greedy, S.greedy, Search_oracle.greedy);
    (A.Top_down_lite, S.top_down_lite, Search_oracle.top_down_lite);
    (A.Top_down_full, S.top_down_full, Search_oracle.top_down_full);
  ]

let check_agrees label (lib : S.outcome) (oracle : S.outcome) =
  Alcotest.(check (list int)) (label ^ " config") (config_ids oracle) (config_ids lib);
  Alcotest.(check int) (label ^ " size") oracle.S.size lib.S.size;
  Alcotest.(check bool)
    (label ^ " benefit") true
    (Float.equal oracle.S.benefit lib.S.benefit)

(* Each search on a fresh evaluator, at 1/2 and 1/4 of the All-Index size:
   the pruned search reproduces the oracle's outcome, and once the floors
   pass behind its upper bounds is paid it makes no more optimizer calls.
   (At this scale the floors pass can cost more than pruning saves.) *)
let prune_case (name, catalog, wl) =
  tc (name ^ ": prune on = prune off oracle, budgets 1/2 and 1/4") (fun () ->
      let catalog = Lazy.force catalog in
      let set = En.candidates wl in
      let all_size =
        (S.all_index (B.create catalog wl) set).S.size
      in
      List.iter
        (fun k ->
          let budget = all_size / k in
          List.iter
            (fun (alg, search, oracle) ->
              let label = Printf.sprintf "%s 1/%d" (A.algorithm_name alg) k in
              let ev = B.create catalog wl in
              ignore (B.floors ev set);
              let floor_calls = B.evaluations ev in
              let lib = search ev set ~budget in
              let ref_ = oracle (B.create catalog wl) set ~budget in
              check_agrees label lib ref_;
              Alcotest.(check int) (label ^ " oracle pruned nothing") 0 ref_.S.pruned;
              Alcotest.(check bool)
                (Printf.sprintf "%s calls %d (after %d for the floors) <= oracle's %d"
                   label lib.S.optimizer_calls floor_calls ref_.S.optimizer_calls)
                true
                (lib.S.optimizer_calls <= ref_.S.optimizer_calls))
            pruned_searches)
        [ 2; 4 ])

let prune_fixtures =
  [
    ("tpox", Helpers.shared_catalog, Xia_workload.Tpox.workload ());
    ("xmark", xmark_catalog, Xia_workload.Xmark.workload ());
    ( "tpox+updates",
      Helpers.shared_catalog,
      Xia_workload.Tpox.workload_with_updates () );
    ( "tpox+synthetic",
      Helpers.shared_catalog,
      Xia_workload.Tpox.workload ()
      @ Synthetic.workload ~seed:11
          (Lazy.force Helpers.shared_catalog)
          (Cat.table_names (Lazy.force Helpers.shared_catalog))
          8 );
    (* Candidates tied on density and specificity: only the logical-key
       tie-break orders them. *)
    ( "synthetic ties",
      Helpers.shared_catalog,
      Synthetic.workload ~seed:2
        (Lazy.force Helpers.shared_catalog)
        (Cat.table_names (Lazy.force Helpers.shared_catalog))
        10 );
  ]

(* The eval harness's order: every algorithm of [A.all_algorithms] at each
   budget on ONE evaluator, so the searches share its memos (the
   [useful_ids] pool is first built unpruned by greedy+heuristics and then
   served to top-down, which asks for it pruned).  Runs through the
   advisor's session API. *)
let prune_eval_path =
  tc "eval path: prune on = oracle, one evaluator for all searches" (fun () ->
      List.iter
        (fun (name, catalog, wl) ->
          let catalog = Lazy.force catalog in
          let session = A.create_session ~compress:false catalog wl in
          let set = session.A.candidates in
          let all_size = B.config_size session.A.evaluator (C.basics set) in
          List.iter
            (fun k ->
              let budget = all_size / k in
              List.iter
                (fun alg ->
                  let lib = (A.session_advise session ~budget alg).A.outcome in
                  match List.find_opt (fun (a, _, _) -> a = alg) pruned_searches with
                  | None -> ()
                  | Some (_, _, oracle) ->
                      check_agrees
                        (Printf.sprintf "%s: %s 1/%d" name (A.algorithm_name alg) k)
                        lib
                        (oracle (B.create catalog wl) set ~budget))
                A.all_algorithms)
            [ 2; 4 ])
        prune_fixtures)

let qcheck_prune_oracle =
  QCheck.Test.make ~count:30 ~name:"pruned searches = oracle on synthetic workloads"
    QCheck.(triple (int_range 0 1000) (int_range 6 12) (oneofl [ 0.2; 0.5; 0.8 ]))
    (fun (seed, n, frac) ->
      let catalog = Lazy.force Helpers.shared_catalog in
      let wl = Synthetic.workload ~seed catalog (Cat.table_names catalog) n in
      let set = En.candidates wl in
      let all_size =
        B.config_size (B.create catalog wl) (C.basics set)
      in
      let budget = int_of_float (frac *. float_of_int all_size) in
      List.iter
        (fun (alg, search, oracle) ->
          check_agrees
            (Printf.sprintf "seed %d n %d frac %.1f %s" seed n frac (A.algorithm_name alg))
            (search (B.create catalog wl) set ~budget)
            (oracle (B.create catalog wl) set ~budget))
        pruned_searches;
      true)

(* Order invariance: a workload's recommendation is a function of its
   statements, not of their order.  For every search algorithm, the
   reversed or shuffled workload must recommend the same logical-key set
   with a [Float.equal] benefit, new cost and estimated speedup.

   Compressed advise is checked on clusters whose members are one
   statement repeated with different frequencies: its cluster weights sum
   member frequencies in workload order, so the benefit may move by an ulp
   and is compared within a relative 1e-12, while the keys must match
   exactly.  A cluster of distinct statements is represented by its first
   member, so on such clusters the recommendation depends on order (the
   random workload itself, compressed, differs at seed 816). *)
let qcheck_order_invariance =
  QCheck.Test.make ~count:60 ~name:"permuted workload: same keys and benefit"
    QCheck.(
      quad (int_range 0 1000) (int_range 6 12) (oneofl [ 0.2; 0.5; 0.8 ]) bool)
    (fun (seed, n, frac, reverse) ->
      let catalog = Lazy.force Helpers.shared_catalog in
      let wl = Synthetic.workload ~seed catalog (Cat.table_names catalog) n in
      let permute wl =
        if reverse then List.rev wl
        else begin
          let rng = Random.State.make [| seed |] in
          List.map snd
            (List.sort
               (fun (a, _) (b, _) -> Int.compare a b)
               (List.map (fun it -> (Random.State.bits rng, it)) wl))
        end
      in
      let permuted = permute wl in
      (* One statement per cluster of [wl], each repeated at three
         frequencies: every cluster of [repeated] is one statement. *)
      let repeated =
        List.concat_map
          (fun (it : W.item) ->
            List.map
              (fun k ->
                {
                  it with
                  W.label = Printf.sprintf "%s#%d" it.W.label k;
                  freq = it.W.freq *. (0.1 +. float_of_int k);
                })
              [ 1; 2; 3 ])
          (WS.workload (WS.compress catalog wl))
      in
      let set = En.candidates wl in
      let all_size = B.config_size (B.create catalog wl) (C.basics set) in
      let budget = int_of_float (frac *. float_of_int all_size) in
      let keys (r : A.recommendation) =
        List.sort String.compare
          (List.map
             (fun (c : C.t) -> Xia_index.Index_def.logical_key c.C.def)
             r.A.outcome.S.config)
      in
      List.iter
        (fun alg ->
          let run wl = A.advise ~compress:false catalog wl ~budget alg in
          let a = run wl and b = run permuted in
          let label =
            Printf.sprintf "seed %d n %d frac %.1f %s %s" seed n frac
              (if reverse then "reversed" else "shuffled")
              (A.algorithm_name alg)
          in
          if keys a <> keys b then
            QCheck.Test.fail_reportf "%s: keys [%s] vs [%s]" label
              (String.concat "; " (keys a))
              (String.concat "; " (keys b));
          if not (Float.equal a.A.outcome.S.benefit b.A.outcome.S.benefit) then
            QCheck.Test.fail_reportf "%s: benefit %h vs %h" label a.A.outcome.S.benefit
              b.A.outcome.S.benefit;
          if not (Float.equal a.A.new_cost b.A.new_cost) then
            QCheck.Test.fail_reportf "%s: new_cost %h vs %h" label a.A.new_cost
              b.A.new_cost;
          if not (Float.equal a.A.est_speedup b.A.est_speedup) then
            QCheck.Test.fail_reportf "%s: est_speedup %h vs %h" label a.A.est_speedup
              b.A.est_speedup;
          let run wl = A.advise ~compress:true catalog wl ~budget alg in
          let a = run repeated and b = run (permute repeated) in
          if keys a <> keys b then
            QCheck.Test.fail_reportf "%s compressed: keys [%s] vs [%s]" label
              (String.concat "; " (keys a))
              (String.concat "; " (keys b));
          let x = a.A.outcome.S.benefit and y = b.A.outcome.S.benefit in
          if Float.abs (x -. y) > 1e-12 *. Float.max (Float.abs x) (Float.abs y) then
            QCheck.Test.fail_reportf "%s compressed: benefit %h vs %h" label x y)
        A.all_algorithms;
      true)

let pruned_counter_fires =
  tc "pruned counter strictly positive at scale" (fun () ->
      let catalog = Lazy.force Helpers.shared_catalog in
      let wl =
        Synthetic.skewed_workload ~seed:31 ~distinct:24 catalog
          (Cat.table_names catalog) 2000
      in
      (* Above the auto threshold: compression must kick in unforced. *)
      let r = A.advise catalog wl ~budget:(256 * 1024) A.Greedy in
      Alcotest.(check bool) "auto-compressed" true r.A.summary.WS.compressed;
      Alcotest.(check int) "statements" 2000 r.A.summary.WS.statements;
      Alcotest.(check bool)
        "clusters bounded by templates" true
        (r.A.summary.WS.cluster_count <= 24);
      Alcotest.(check bool)
        (Printf.sprintf "pruned > 0 (got %d)" r.A.outcome.S.pruned)
        true
        (r.A.outcome.S.pruned > 0))

let summary_tests =
  List.map differential_case differential_fixtures
  @ [ synthetic_differential; bounded_regret ]

let prune_tests =
  List.map prune_case prune_fixtures @ [ pruned_counter_fires; prune_eval_path ]

let suites =
  [
    ("summary.differential", summary_tests);
    ("summary.pruning", prune_tests);
    ("summary.memo", memo_tests);
    Helpers.qsuite "summary.qcheck"
      [ qcheck_clustering; qcheck_memo_oracle; qcheck_prune_oracle; qcheck_order_invariance ];
  ]
