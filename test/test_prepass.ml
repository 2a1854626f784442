(* Differential checks of the what-if pre-passes: the plan usage, search
   pool and cost floors Xia_advisor.Benefit reads off its access index
   must equal the statement-by-candidate scans of [Prepass_oracle], on
   synthetic workloads and on a fixed case whose cross-coverage takes plan
   usage off the union batch.  The index matches each distinct access key
   once against each candidate, so its match tests are counted too. *)

module O = Xia_optimizer.Optimizer
module B = Xia_advisor.Benefit
module C = Xia_advisor.Candidate
module En = Xia_advisor.Enumeration
module W = Xia_workload.Workload
module Cat = Xia_index.Catalog

let tc name f = Alcotest.test_case name `Quick f
let statements wl = List.map (fun (it : W.item) -> it.W.statement) wl
let sorted_keys tbl = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])

let distinct_keys catalog wl =
  List.concat_map (fun s -> Array.to_list (O.access_keys (O.prepare catalog s))) (statements wl)
  |> List.sort_uniq compare |> List.length

(* Plan usage, then the floors, on one evaluator; the search pool, pruned
   and not, on fresh ones.  Floors compare bit for bit. *)
let check label catalog wl =
  let set = En.candidates wl in
  let stmts = statements wl in
  let keys = distinct_keys catalog wl in
  let ev = B.create catalog wl in
  Alcotest.(check (list int))
    (label ^ ": used_in_plans")
    (Prepass_oracle.used_in_plans catalog stmts set)
    (sorted_keys (B.used_in_plans ev set));
  Alcotest.(check int)
    (label ^ ": match tests of plan usage")
    (keys * List.length (C.basics set))
    (B.match_tests ev);
  let want = Prepass_oracle.floors catalog stmts set in
  let floors = B.floors ev set in
  (* One cache entry per distinct floor configuration: as many entries as
     the oracle has configurations, and costing one over the whole workload
     adds none. *)
  let configs = Prepass_oracle.floor_configs stmts set in
  Alcotest.(check int) (label ^ ": floor configurations") (List.length configs)
    (B.cached_sub_configs ev);
  List.iter
    (fun ids ->
      ignore (B.workload_cost ev (List.map (C.get set) ids));
      if B.cached_sub_configs ev <> List.length configs then
        Alcotest.failf "%s: floor configuration [%s] was not evaluated" label
          (String.concat "; " (List.map string_of_int ids)))
    configs;
  Array.iteri
    (fun i floor ->
      if not (Float.equal floor want.(i)) then
        Alcotest.failf "%s: floor of statement %d is %h, oracle %h" label i floor want.(i))
    floors;
  Alcotest.(check int)
    (label ^ ": match tests of both passes")
    (keys * C.cardinality set) (B.match_tests ev);
  List.iter
    (fun prune ->
      Alcotest.(check (list int))
        (Printf.sprintf "%s: useful_ids ~prune:%b" label prune)
        (Prepass_oracle.useful_ids (B.create catalog wl) catalog stmts set)
        (sorted_keys (B.useful_ids ~prune (B.create catalog wl) set)))
    [ false; true ]

(* The basic [//Symbol] of the first statement serves the second
   statement's [/Security/Symbol] access without affecting it, and ties
   with that statement's own basic, which comes after it: planned under
   every basic, the second statement would use [//Symbol] and leave its
   own basic unused.  The third statement has no cross-coverage; the
   fourth has both Symbol accesses, so its own floor configuration is the
   second statement's once cross-coverage is counted.  The fifth meets
   the cross-coverage at its second access. *)
let cross_workload () =
  W.of_strings
    [
      {|for $s in SECURITY('SDOC')//Symbol where $s = "BCIIPRC" return $s|};
      {|for $s in SECURITY('SDOC')/Security where $s/Symbol = "BCIIPRC" return $s|};
      {|for $s in SECURITY('SDOC')/Security where $s/Yield > 4.5 return $s|};
      {|for $s in SECURITY('SDOC')/Security, $t in SECURITY('SDOC')//Symbol
        where $s/Symbol = "BCIIPRC" and $t = "X" return $s|};
      {|for $s in SECURITY('SDOC')/Security where $s/Yield > 4.5 and $s/Symbol = "BCIIPRC"
        return $s|};
    ]

let fixed_tests =
  [
    tc "cross-coverage: a fallback batch runs, and the pre-passes = oracle" (fun () ->
        let catalog = Lazy.force Helpers.shared_catalog in
        let wl = cross_workload () in
        let set = En.candidates wl in
        let ev = B.create catalog wl in
        let calls0 = Atomic.get O.counters.O.optimize_calls in
        ignore (B.used_in_plans ev set);
        (* the union batch for the statements without cross-coverage, and at
           least one batch over a statement's own basics *)
        Alcotest.(check bool)
          "a fallback batch" true
          (Atomic.get O.counters.O.optimize_calls - calls0 >= 2);
        check "cross" catalog wl);
    tc "TPoX: the pre-passes = oracle" (fun () ->
        check "tpox" (Lazy.force Helpers.shared_catalog) (Xia_workload.Tpox.workload ()));
  ]

let qcheck_prepass =
  QCheck.Test.make ~count:25 ~name:"pre-passes = statement scans on synthetic workloads"
    QCheck.(triple (int_range 0 1000) (int_range 1 24) bool)
    (fun (seed, n, cross) ->
      let catalog = Lazy.force Helpers.shared_catalog in
      let wl = Xia_workload.Synthetic.workload ~seed catalog (Cat.table_names catalog) n in
      let wl = if cross then wl @ cross_workload () else wl in
      check (Printf.sprintf "seed %d n %d cross %b" seed n cross) catalog wl;
      true)

let suites =
  [ ("prepass.differential", fixed_tests); Helpers.qsuite "prepass.qcheck" [ qcheck_prepass ] ]
