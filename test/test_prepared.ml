(* Prepared planning against the from-scratch planner it replaced
   ([Optimizer_oracle]): for random virtual configurations over tiny TPoX,
   tiny XMark and synthetic statements (OR filters, AND pairs, several
   bindings, DML), prepared at index-cost factor 1 and at the eval's
   perturbation 1000, and over real indexes in Normal mode, every plan must
   be bit-identical — shape, index names, the access each index serves,
   [%h] costs and [est_docs] — and must count the same [plans_considered];
   a batch with the probe memo cold and warm. *)

module O = Xia_optimizer.Optimizer
module Plan = Xia_optimizer.Plan
module Catalog = Xia_index.Catalog
module Index_def = Xia_index.Index_def
module Pattern = Xia_xpath.Pattern
module W = Xia_workload.Workload
module C = Xia_advisor.Candidate
module En = Xia_advisor.Enumeration

let tc name f = Alcotest.test_case name `Quick f

let choice_repr (c : Plan.index_choice) =
  Printf.sprintf "%s%s<%s>#%d" (Index_def.name c.Plan.def)
    (if c.Plan.is_virtual then "*" else "")
    (Pattern.to_string c.Plan.access.Xia_query.Rewriter.pattern)
    c.Plan.stats.Xia_index.Index_stats.entries

let shape_repr = function
  | Plan.Doc_scan -> "DOCSCAN"
  | Plan.Index_scan c -> "IXSCAN(" ^ choice_repr c ^ ")"
  | Plan.Index_and cs -> "IXAND(" ^ String.concat ", " (List.map choice_repr cs) ^ ")"
  | Plan.Index_or cs -> "IXOR(" ^ String.concat ", " (List.map choice_repr cs) ^ ")"

let plan_repr ((p : Plan.t), affected) =
  String.concat " "
    (Printf.sprintf "total=%h affected=%h" p.Plan.total_cost affected
    :: List.map
         (fun (b : Plan.planned_binding) ->
           Printf.sprintf "[$%s %s cost=%h docs=%h]" b.Plan.info.Xia_query.Rewriter.var
             (shape_repr b.Plan.plan) b.Plan.est_cost b.Plan.est_docs)
         p.Plan.bindings)

(* Statements the generated workloads lack: OR filters (two and three
   disjuncts, mixed types), AND pairs and triples, two bindings, and DML
   with locating predicates. *)
let tpox_extras =
  [
    {|for $s in SECURITY('SDOC')/Security where $s/Symbol = "SYM00042" or $s/Yield > 4.5 return $s|};
    {|for $s in SECURITY('SDOC')/Security where $s/Symbol = "SYM00007" or $s/Name = "x" or $s/SecInfo/*/Sector = "Energy" return $s|};
    {|for $c in CUSTACC('CADOC')/Customer where $c/Nationality = "Norway" and $c/Tier = "Platinum" return $c|};
    {|for $s in SECURITY('SDOC')/Security where $s/Symbol = "SYM00042" and $s/Yield > 4.5 and $s/SecInfo/*/Sector = "Energy" return $s|};
    {|for $s in SECURITY('SDOC')/Security, $o in XORDER('ODOC')/FIXML/Order where $s/Symbol = "SYM00042" and $o/@Acct = "ACCT000770" return $s|};
    {|for $s in SECURITY('SDOC')/Security[Yield>4.5] where $s/Symbol = "SYM00042" or $s/Price/LastTrade < 20 return $s|};
    {|delete from SECURITY where /Security[Yield>4.5]|};
    {|update CUSTACC set /Customer/Tier = "Gold" where /Customer[Nationality="Norway"]|};
  ]

let statements workload = Array.of_list (List.map (fun (it : W.item) -> it.W.statement) workload)

let xmark_catalog =
  lazy
    (let catalog = Catalog.create () in
     Xia_workload.Xmark.load ~scale:Xia_workload.Xmark.tiny_scale ~seed:7 catalog;
     catalog)

(* (label, catalog, statements, index defs to draw configurations from):
   every candidate the advisor would consider, plus universal indexes. *)
let fixtures =
  lazy
    (let tpox = Lazy.force Helpers.shared_catalog in
     let xmark = Lazy.force xmark_catalog in
     let universals catalog =
       List.concat_map
         (fun table ->
           List.map
             (fun (pattern, dtype) -> Index_def.make ~table ~pattern ~dtype ())
             [
               (Pattern.universal, Index_def.Dstring);
               (Pattern.universal, Index_def.Ddouble);
               (Pattern.universal_attr, Index_def.Dstring);
             ])
         (Catalog.table_names catalog)
     in
     let fixture label catalog workload =
       let set = En.candidates workload in
       ( label,
         catalog,
         statements workload,
         Array.of_list
           (List.map (fun (c : C.t) -> c.C.def) (C.to_list set) @ universals catalog) )
     in
     [
       fixture "tpox" tpox
         (Xia_workload.Tpox.workload_with_updates () @ W.of_strings tpox_extras);
       fixture "xmark" xmark (Xia_workload.Xmark.workload ());
       fixture "synthetic" tpox
         (Xia_workload.Synthetic.workload ~seed:5 tpox (Catalog.table_names tpox) 16);
     ])

(* A random configuration: up to 12 distinct defs in random order, and
   sometimes a renamed copy of one of them — same logical index, so its
   probes share a memo entry while the tie-break must still pick by
   position. *)
let random_config rng defs =
  let n = Array.length defs in
  let picked =
    List.init (Random.State.int rng (min 12 n + 1)) (fun _ -> defs.(Random.State.int rng n))
    |> List.sort_uniq (fun a b -> String.compare (Index_def.name a) (Index_def.name b))
    |> List.map (fun d -> (Random.State.bits rng, d))
    |> List.sort compare |> List.map snd
  in
  match picked with
  | d :: _ when Random.State.bool rng ->
      let copy = Index_def.make ~name:("COPY_" ^ Index_def.name d) ~table:d.table
          ~pattern:d.pattern ~dtype:d.dtype ()
      in
      if Random.State.bool rng then picked @ [ copy ] else copy :: picked
  | _ -> picked

let plans_considered () = Atomic.get O.counters.O.plans_considered

(* Bindings planned with an index so far: a run that saw none compared
   document scans only. *)
let index_plans = ref 0

let check_same ?(factor = 1.0) label mode ~virtual_config catalog stmts got got_count =
  let before = !Optimizer_oracle.plans_considered in
  let expected =
    Array.map
      (Optimizer_oracle.optimize ~mode ~index_cost_factor:factor ~virtual_config catalog)
      stmts
  in
  let expected_count = !Optimizer_oracle.plans_considered - before in
  Array.iteri
    (fun i p ->
      List.iter
        (fun (b : Plan.planned_binding) ->
          match b.Plan.plan with Plan.Doc_scan -> () | _ -> incr index_plans)
        p.Plan.bindings;
      let want = plan_repr expected.(i)
      and have = plan_repr (p, O.affected_docs (O.prepare catalog stmts.(i))) in
      if not (String.equal want have) then
        QCheck.Test.fail_reportf "%s statement %d:\n oracle   %s\n prepared %s" label i want
          have)
    got;
  if expected_count <> got_count then
    QCheck.Test.fail_reportf "%s: plans_considered %d, oracle %d" label got_count
      expected_count

(* The cost-only entry point against the plans: every cost bit-identical to
   the plan's [total_cost], and the same [plans_considered]. *)
let check_costs label (plans : Plan.t array) plan_count costs cost_count =
  Array.iteri
    (fun i (p : Plan.t) ->
      if not (Int64.equal (Int64.bits_of_float p.Plan.total_cost) (Int64.bits_of_float costs.(i)))
      then
        QCheck.Test.fail_reportf "%s statement %d: plan total %h, cost entry %h" label i
          p.Plan.total_cost costs.(i))
    plans;
  if plan_count <> cost_count then
    QCheck.Test.fail_reportf "%s: plans_considered %d planning, %d costing" label plan_count
      cost_count

(* Plan [prepared] under [cfg] twice — cold memo, then warm — and compare
   both rounds with the oracle at the index-cost [factor] both were
   prepared with; cost [for_costs] (the same statements, prepared
   separately so its memo is cold too) alongside. *)
let plan_twice ?factor label ~virtual_config catalog stmts prepared for_costs =
  List.iter
    (fun round ->
      let label = Printf.sprintf "%s %s" label round in
      let c0 = plans_considered () in
      let got = O.optimize_prepared ~virtual_config prepared in
      let got_count = plans_considered () - c0 in
      check_same ?factor label O.Evaluate ~virtual_config catalog stmts got got_count;
      let c1 = plans_considered () in
      let costs = O.optimize_costs ~virtual_config for_costs in
      check_costs label got got_count costs (plans_considered () - c1))
    [ "cold"; "warm" ]

(* The one-statement entry points: plans and costs against the oracle. *)
let plan_each label mode ~virtual_config catalog stmts =
  let c0 = plans_considered () in
  let got = Array.map (O.optimize ~mode ~virtual_config catalog) stmts in
  let got_count = plans_considered () - c0 in
  check_same label mode ~virtual_config catalog stmts got got_count;
  let c1 = plans_considered () in
  let costs = Array.map (O.statement_cost ~mode ~virtual_config catalog) stmts in
  check_costs label got got_count costs (plans_considered () - c1)

let qcheck_evaluate =
  QCheck.Test.make ~count:12 ~name:"prepared = oracle under random virtual configs"
    QCheck.(make Gen.(int_range 0 100_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let seen = !index_plans in
      List.iter
        (fun (label, catalog, stmts, defs) ->
          let configs = List.init 3 (fun _ -> random_config rng defs) in
          (* One preparation per factor: its memo starts cold and warms
             across the configurations.  Factor 1000 is the eval's
             perturbed search model. *)
          List.iter
            (fun factor ->
              let prepared = Array.map (O.prepare ~index_cost_factor:factor catalog) stmts in
              let for_costs = Array.map (O.prepare ~index_cost_factor:factor catalog) stmts in
              List.iteri
                (fun k virtual_config ->
                  plan_twice ~factor
                    (Printf.sprintf "%s seed=%d factor=%g cfg%d" label seed factor k)
                    ~virtual_config catalog stmts prepared for_costs)
                configs)
            [ 1.0; 1000.0 ];
          (* The one-statement entry points plan through the same path. *)
          plan_each
            (Printf.sprintf "%s seed=%d optimize" label seed)
            O.Evaluate ~virtual_config:(random_config rng defs) catalog stmts)
        (Lazy.force fixtures);
      !index_plans > seen)

(* Normal mode over materialized indexes, including two real indexes with
   the same pattern (the catalog's order breaks their cost tie).  Only the
   one-statement entry points plan in Normal mode: the batched ones take
   no catalog. *)
let normal_mode_tests =
  [
    tc "Normal mode: prepared = oracle over real indexes" (fun () ->
        let catalog = Helpers.fresh_tiny_catalog () in
        let _, _, stmts, _ = List.hd (Lazy.force fixtures) in
        let mk p dtype = Index_def.make ~table:"SECURITY" ~pattern:(Helpers.pattern p) ~dtype () in
        List.iter
          (fun d -> ignore (Catalog.create_index catalog d))
          [
            mk "/Security/Symbol" Index_def.Dstring;
            mk "/Security/Yield" Index_def.Ddouble;
            mk "/Security//*" Index_def.Dstring;
            Index_def.make ~table:"CUSTACC" ~pattern:(Helpers.pattern "/Customer/Tier")
              ~dtype:Index_def.Dstring ();
            Index_def.make ~table:"XORDER" ~pattern:(Helpers.pattern "/FIXML/Order/@Acct")
              ~dtype:Index_def.Dstring ();
          ];
        let seen = !index_plans in
        plan_each "normal" O.Normal ~virtual_config:[] catalog stmts;
        Alcotest.(check bool) "some binding planned with an index" true (!index_plans > seen));
  ]

let words_of n f =
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f ()))
  done;
  Gc.minor_words () -. w0

(* Costing prepared statements whose probes are all memoized builds no
   plan.  What remains per statement is its slot in the result array, its
   boxed total and each binding's boxed cost on the way out of the walk
   (and, for a binding with AND pairs, one small array of winning index
   positions); the batch's visible-index setup is shared by the fifty
   copies of the fixture. *)
let allocation_tests =
  [
    tc "re-costing memoized statements allocates a few words each" (fun () ->
        let _, catalog, stmts, defs = List.hd (Lazy.force fixtures) in
        let once = Array.map (O.prepare catalog) stmts in
        let prepared = Array.concat (List.init 50 (fun _ -> once)) in
        let virtual_config = Array.to_list defs in
        let cost () = O.optimize_costs ~virtual_config prepared in
        (* The first pass memoizes every probe. *)
        let costs = cost () in
        let base = O.optimize_costs ~virtual_config:[] prepared in
        Alcotest.(check bool) "some statement costed with an index" true
          (Array.exists2 (fun c b -> c < b) costs base);
        let runs = 20 in
        let per_statement =
          words_of runs cost /. float_of_int (runs * Array.length prepared)
        in
        Alcotest.(check bool)
          (Printf.sprintf "%.2f words per statement, at most 12" per_statement)
          true (per_statement <= 12.));
  ]

let suites =
  [
    ("prepared.differential", [ QCheck_alcotest.to_alcotest qcheck_evaluate ]);
    ("prepared.normal", normal_mode_tests);
    ("prepared.allocation", allocation_tests);
  ]
