(* Tests for disjunctive where clauses (OR) and index-ORing plans. *)

module Q = Xia_query.Ast
module QP = Xia_query.Parser
module R = Xia_query.Rewriter
module O = Xia_optimizer.Optimizer
module Plan = Xia_optimizer.Plan
module E = Xia_optimizer.Executor
module Cat = Xia_index.Catalog
module D = Xia_index.Index_def
module DS = Xia_storage.Doc_store

let tc name f = Alcotest.test_case name `Quick f

let parser_tests =
  [
    tc "or produces one group with two clauses" (fun () ->
        match Helpers.statement {|for $x in T/a where $x/k = "a" or $x/m = "b" return $x|} with
        | Q.Select { where = [ [ _; _ ] ]; _ } -> ()
        | _ -> Alcotest.fail "expected one group of two");
    tc "or binds tighter than and" (fun () ->
        match
          Helpers.statement
            {|for $x in T/a where $x/k = "a" or $x/m = "b" and $x/v > 1 return $x|}
        with
        | Q.Select { where = [ [ _; _ ]; [ _ ] ]; _ } -> ()
        | _ -> Alcotest.fail "expected (k or m) and (v)");
    tc "cross-variable or rejected" (fun () ->
        Alcotest.(check bool) "err" true
          (Result.is_error
             (QP.parse_statement
                {|for $x in T/a, $y in U/b where $x/k = "a" or $y/m = "b" return $x|})));
    tc "printer roundtrips or" (fun () ->
        let s = {|for $x in T('XMLDOC')/a where $x/k = "a" or $x/m = "b" and $x/v > 1 return $x|} in
        Alcotest.(check string) "rt" s
          (Xia_query.Printer.statement_to_string (Helpers.statement s)));
  ]

let rewriter_tests =
  [
    tc "or group becomes one multi-access filter" (fun () ->
        let s = Helpers.statement {|for $x in T/a where $x/k = "a" or $x/m = "b" return $x|} in
        match R.bindings_of_statement s with
        | [ { R.filters = [ [ a1; a2 ] ]; _ } ] ->
            Alcotest.(check string) "first" "/a/k" (Xia_xpath.Pattern.to_string a1.R.pattern);
            Alcotest.(check string) "second" "/a/m" (Xia_xpath.Pattern.to_string a2.R.pattern)
        | _ -> Alcotest.fail "expected one disjunctive filter");
    tc "both disjunct patterns are candidates" (fun () ->
        let s = Helpers.statement {|for $x in T/a where $x/k = "a" or $x/m = "b" return $x|} in
        Alcotest.(check int) "two" 2 (List.length (R.indexable_patterns s)));
  ]

(* 600 docs with two selective keys. *)
let or_catalog () =
  let catalog = Cat.create () in
  let store = DS.create "T" in
  for i = 0 to 599 do
    ignore
      (DS.insert store
         (Helpers.xml
            (Printf.sprintf "<a><k>K%02d</k><m>M%02d</m><v>%d</v></a>" (i mod 60)
               (i mod 50) i)))
  done;
  ignore (Cat.add_table catalog store);
  ignore (Cat.runstats catalog "T");
  catalog

let def ?(dtype = D.Dstring) p = D.make ~table:"T" ~pattern:(Helpers.pattern p) ~dtype ()

let or_query = {|for $x in T/a where $x/k = "K03" or $x/m = "M07" return $x|}

let optimizer_tests =
  [
    tc "index OR plan chosen when both disjuncts indexed" (fun () ->
        let catalog = or_catalog () in
        let p =
          O.optimize ~mode:O.Evaluate ~virtual_config:[ def "/a/k"; def "/a/m" ] catalog
            (Helpers.statement or_query)
        in
        match p.Plan.bindings with
        | [ { plan = Plan.Index_or [ _; _ ]; _ } ] -> ()
        | [ b ] -> Alcotest.failf "expected IXOR, got %a" Plan.pp_binding_plan b.Plan.plan
        | _ -> Alcotest.fail "one binding expected");
    tc "no index OR when one disjunct lacks an index" (fun () ->
        let catalog = or_catalog () in
        let p =
          O.optimize ~mode:O.Evaluate ~virtual_config:[ def "/a/k" ] catalog
            (Helpers.statement or_query)
        in
        match p.Plan.bindings with
        | [ { plan = Plan.Doc_scan; _ } ] -> ()
        | _ -> Alcotest.fail "expected doc scan");
    tc "or estimate uses inclusion-exclusion" (fun () ->
        let catalog = or_catalog () in
        let p = O.optimize ~mode:O.Evaluate catalog (Helpers.statement or_query) in
        match p.Plan.bindings with
        | [ b ] ->
            (* 10 + 12 matching docs, minus tiny overlap *)
            Alcotest.(check bool) "approx 22" true
              (b.Plan.est_docs > 15.0 && b.Plan.est_docs < 30.0)
        | _ -> Alcotest.fail "one binding expected");
    tc "index OR is cheaper than doc scan" (fun () ->
        let catalog = or_catalog () in
        let base =
          (O.optimize ~mode:O.Evaluate catalog (Helpers.statement or_query)).Plan.total_cost
        in
        let indexed =
          (O.optimize ~mode:O.Evaluate ~virtual_config:[ def "/a/k"; def "/a/m" ] catalog
             (Helpers.statement or_query))
            .Plan.total_cost
        in
        Alcotest.(check bool) "cheaper" true (indexed < base));
  ]

let executor_tests =
  [
    tc "or rows correct without indexes" (fun () ->
        let catalog = or_catalog () in
        (* k = K03: 10 docs; m = M07: 12 docs; the residue classes 3 (mod 60)
           and 7 (mod 50) never coincide below 600, so the union is 22 *)
        let r = E.run_statement catalog (Helpers.statement or_query) in
        Alcotest.(check int) "rows" 22 r.E.rows);
    tc "or rows identical via index OR" (fun () ->
        let catalog = or_catalog () in
        let before = (E.run_statement catalog (Helpers.statement or_query)).E.rows in
        ignore (Cat.create_index catalog (def "/a/k"));
        ignore (Cat.create_index catalog (def "/a/m"));
        let r = E.run_statement catalog (Helpers.statement or_query) in
        Alcotest.(check int) "same" before r.E.rows;
        Alcotest.(check bool) "used indexes" true (r.E.metrics.E.docs_fetched > 0);
        Alcotest.(check int) "no scan" 0 r.E.metrics.E.docs_scanned);
    tc "or-and mix evaluated correctly" (fun () ->
        let catalog = or_catalog () in
        let q =
          {|for $x in T/a where $x/k = "K03" or $x/m = "M07" and $x/v >= 300 return $x|}
        in
        let before = (E.run_statement catalog (Helpers.statement q)).E.rows in
        (* (k or m) and (v >= 300): half of the 20 *)
        Alcotest.(check bool) "plausible" true (before >= 5 && before <= 15);
        ignore (Cat.create_index catalog (def "/a/k"));
        ignore (Cat.create_index catalog (def "/a/m"));
        ignore (Cat.create_index catalog (def ~dtype:D.Ddouble "/a/v"));
        Alcotest.(check int) "same" before
          (E.run_statement catalog (Helpers.statement q)).E.rows);
    tc "advisor recommends for an or-heavy workload" (fun () ->
        let catalog = or_catalog () in
        let wl = Xia_workload.Workload.of_strings [ or_query ] in
        let r =
          Xia_advisor.Advisor.advise catalog wl ~budget:(4 * 1024 * 1024)
            Xia_advisor.Advisor.Greedy_heuristics
        in
        (* both disjunct indexes are needed together *)
        Alcotest.(check int) "two indexes" 2
          (List.length (Xia_advisor.Advisor.indexes r));
        Alcotest.(check bool) "beneficial" true (r.Xia_advisor.Advisor.est_speedup > 1.0));
  ]

let suites =
  [
    ("disjunction.parser", parser_tests);
    ("disjunction.rewriter", rewriter_tests);
    ("disjunction.optimizer", optimizer_tests);
    ("disjunction.executor", executor_tests);
  ]
