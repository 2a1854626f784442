(* Workload compression (Workload_summary) and upper-bound pruning tests.

   - Differential: on duplicate-heavy workloads (cost-homogeneous clusters)
     the compressed advisor recommends exactly the raw advisor's indexes,
     across benchmarks and domain counts.
   - Bounded regret: on a heterogeneous workload (same signatures, different
     constants) the compressed recommendation's true estimated cost stays
     close to the raw recommendation's.
   - Clustering determinism: the signature partition is a stable,
     permutation-insensitive function of the workload.
   - Pruning soundness: every pruned search returns the same outcome as its
     unpruned twin, and the pruned counter actually fires at scale. *)

module A = Xia_advisor.Advisor
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
        (fun domains ->
          List.iter
            (fun alg ->
              let budget = 512 * 1024 in
              let raw =
                A.advise ~domains ~compress:false catalog wl ~budget alg
              in
              let comp =
                A.advise ~domains ~compress:true catalog wl ~budget alg
              in
              let label what =
                Printf.sprintf "%s/%s/domains=%d %s" name
                  (A.algorithm_name alg) domains what
              in
              Alcotest.(check bool)
                (label "compressed flag") true comp.A.summary.WS.compressed;
              Alcotest.(check bool)
                (label "fewer clusters") true
                (comp.A.summary.WS.cluster_count
                < comp.A.summary.WS.statements);
              Alcotest.(check (list string))
                (label "identical indexes") (defs_of raw) (defs_of comp);
              Alcotest.(check int)
                (label "identical size") raw.A.outcome.S.size
                comp.A.outcome.S.size)
            [ A.Greedy; A.Greedy_heuristics; A.Top_down_full ])
        [ 1; 4 ])

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
      List.iter
        (fun domains ->
          let budget = 512 * 1024 in
          let raw =
            A.advise ~domains ~compress:false catalog wl ~budget A.Greedy
          in
          let comp =
            A.advise ~domains ~compress:true catalog wl ~budget A.Greedy
          in
          Alcotest.(check (list string))
            (Printf.sprintf "identical indexes (domains=%d)" domains)
            (defs_of raw) (defs_of comp))
        [ 1; 4 ])

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
      let raw = A.advise ~domains:1 ~compress:false catalog wl ~budget A.Greedy in
      let comp = A.advise ~domains:1 ~compress:true catalog wl ~budget A.Greedy in
      let cost defs = A.estimated_workload_cost catalog wl defs in
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

(* The partition (as a set of member-label sets) must be identical across
   repeated runs and across input permutations; domain counts cannot touch
   it (clustering is a pure sequential pass).  First-occurrence cluster
   ORDER tracks the permuted input, so only the partition is compared. *)
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
      let partition wl =
        let s = WS.compress catalog wl in
        let items = Array.of_list wl in
        WS.members s
        |> List.map (fun members ->
               List.sort compare
                 (List.map (fun i -> items.(i).W.label) members))
        |> List.sort compare
      in
      let rng = Random.State.make [| seed + 17 |] in
      let shuffled =
        wl
        |> List.map (fun it -> (Random.State.bits rng, it))
        |> List.sort (fun (a, _) (b, _) -> compare a b)
        |> List.map snd
      in
      let p = partition wl in
      p = partition wl && p = partition shuffled)

(* ---------- the per-statement memo against a memo-free oracle ------------ *)

(* The clustering [compress] must produce, recomputed afresh for
   every statement: group by kind, target tables (DML only) and
   signature, clusters in first-occurrence order, members ascending, the
   first member as representative, frequencies summed in workload order. *)
let oracle catalog (wl : W.t) =
  let key (stmt : Xia_query.Ast.statement) =
    let kind, tables =
      match stmt with
      | Xia_query.Ast.Select _ -> (0, [])
      | Insert _ -> (1, Xia_query.Ast.tables stmt)
      | Delete _ -> (2, Xia_query.Ast.tables stmt)
      | Update _ -> (3, Xia_query.Ast.tables stmt)
    in
    (kind, List.sort_uniq compare tables, WS.signature catalog stmt)
  in
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
  (List.map (fun (_, (members, _)) -> members) clusters,
   List.map (fun (_, (_, weight)) -> weight) clusters)

let check_against_oracle what catalog wl =
  let s = WS.compress catalog wl in
  let members, weights = oracle catalog wl in
  let items = Array.of_list wl in
  Alcotest.(check (list (list int))) (what ^ ": partition") members (WS.members s);
  Alcotest.(check bool)
    (what ^ ": weights bit-identical")
    true
    (List.equal
       (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
       weights
       (Array.to_list (WS.weights s)));
  Alcotest.(check (list string))
    (what ^ ": representatives")
    (List.map (fun m -> items.(List.hd m).W.label) members)
    (W.labels (WS.workload s))

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
      let members, weights = oracle catalog shuffled in
      WS.members s = members
      && List.equal Float.equal weights (Array.to_list (WS.weights s)))

(* ---------- pruning soundness -------------------------------------------- *)

let config_ids (o : S.outcome) =
  List.map (fun (c : C.t) -> c.C.id) o.S.config

let prune_case (name, catalog, wl) =
  tc (name ^ ": prune on = prune off") (fun () ->
      let catalog = Lazy.force catalog in
      let set = En.candidates catalog wl in
      let budget =
        let ev = B.create ~domains:1 catalog wl in
        (S.all_index ev set).S.size / 2
      in
      List.iter
        (fun (sname, search) ->
          let run prune =
            let ev = B.create ~domains:1 catalog wl in
            search ~prune ev set ~budget
          in
          let on = run true and off = run false in
          Alcotest.(check (list int))
            (sname ^ " config") (config_ids off) (config_ids on);
          Alcotest.(check int) (sname ^ " size") off.S.size on.S.size;
          Alcotest.(check bool)
            (sname ^ " benefit") true
            (Float.equal off.S.benefit on.S.benefit);
          Alcotest.(check int) (sname ^ " off pruned nothing") 0 off.S.pruned)
        [
          ("greedy", fun ~prune ev set ~budget -> S.greedy ~prune ev set ~budget);
          ( "top-down lite",
            fun ~prune ev set ~budget -> S.top_down_lite ~prune ev set ~budget );
          ( "top-down full",
            fun ~prune ev set ~budget -> S.top_down_full ~prune ev set ~budget );
        ])

let prune_fixtures =
  [
    ("tpox", Helpers.shared_catalog, Xia_workload.Tpox.workload ());
    ("xmark", xmark_catalog, Xia_workload.Xmark.workload ());
    ( "tpox+synthetic",
      Helpers.shared_catalog,
      Xia_workload.Tpox.workload ()
      @ Synthetic.workload ~seed:11
          (Lazy.force Helpers.shared_catalog)
          (Cat.table_names (Lazy.force Helpers.shared_catalog))
          8 );
  ]

let pruned_counter_fires =
  tc "pruned counter strictly positive at scale" (fun () ->
      let catalog = Lazy.force Helpers.shared_catalog in
      let wl =
        Synthetic.skewed_workload ~seed:31 ~distinct:24 catalog
          (Cat.table_names catalog) 2000
      in
      (* Above the auto threshold: compression must kick in unforced. *)
      let r = A.advise ~domains:1 catalog wl ~budget:(256 * 1024) A.Greedy in
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

(* The eval harness's prune plumbing: quality scores are bit-identical with
   pruning on and off — only per-algorithm optimizer-call counts may
   differ.  Extends the search-level prune twins above to the whole
   regret/validation pipeline (and, via Advisor.run_search, covers the new
   ?prune plumbing on the advisor API). *)
let prune_eval_path =
  tc "eval path: prune on = prune off (regret bit-for-bit)" (fun () ->
      let module Eval = Xia_eval.Eval in
      let spec =
        List.filter (fun s -> s.Eval.s_name = "tpox-small") Eval.default_specs
      in
      let run prune = Eval.run ~domains:1 ~prune ~small:true spec in
      let on = run true and off = run false in
      List.iter2
        (fun (a : Eval.case_result) (b : Eval.case_result) ->
          Alcotest.(check string) "case" a.Eval.r_case b.Eval.r_case;
          Alcotest.(check bool)
            "spearman" true
            (Float.equal a.Eval.r_spearman b.Eval.r_spearman);
          List.iter2
            (fun (x : Eval.entry) (y : Eval.entry) ->
              let label =
                Printf.sprintf "%s/%.2f/%s" x.Eval.e_case x.Eval.e_frac
                  x.Eval.e_algorithm
              in
              Alcotest.(check string) (label ^ " alg") x.Eval.e_algorithm
                y.Eval.e_algorithm;
              Alcotest.(check bool)
                (label ^ " regret") true
                (Float.equal x.Eval.e_regret y.Eval.e_regret);
              Alcotest.(check bool)
                (label ^ " benefit") true
                (Float.equal x.Eval.e_benefit y.Eval.e_benefit);
              Alcotest.(check int) (label ^ " rank") x.Eval.e_rank y.Eval.e_rank)
            a.Eval.r_entries b.Eval.r_entries)
        on off)

(* ?prune on the one-shot advisor API: pruned and unpruned twins recommend
   identical indexes, and prune:false really probes everything. *)
let prune_advise_api =
  tc "Advisor.advise ?prune twins agree" (fun () ->
      let catalog = Lazy.force Helpers.shared_catalog in
      let wl = Xia_workload.Tpox.workload () in
      let budget = 256 * 1024 in
      List.iter
        (fun alg ->
          let run prune =
            A.advise ~prune ~domains:1 ~compress:false catalog wl ~budget alg
          in
          let on = run true and off = run false in
          Alcotest.(check (list string))
            (A.algorithm_name alg ^ " indexes") (defs_of off) (defs_of on);
          Alcotest.(check int)
            (A.algorithm_name alg ^ " off pruned nothing") 0
            off.A.outcome.S.pruned)
        [ A.Greedy; A.Top_down_lite; A.Top_down_full ])

let prune_tests =
  List.map prune_case prune_fixtures
  @ [ pruned_counter_fires; prune_eval_path; prune_advise_api ]

let suites =
  [
    ("summary.differential", summary_tests);
    ("summary.pruning", prune_tests);
    ("summary.memo", memo_tests);
    Helpers.qsuite "summary.qcheck" [ qcheck_clustering; qcheck_memo_oracle ];
  ]
