(* Tests for selectivity estimation, plan choice and the two advisor modes. *)

module O = Xia_optimizer.Optimizer
module Plan = Xia_optimizer.Plan
module Sel = Xia_optimizer.Selectivity
module Cat = Xia_index.Catalog
module D = Xia_index.Index_def
module DS = Xia_storage.Doc_store
module R = Xia_query.Rewriter

let tc name f = Alcotest.test_case name `Quick f

(* A controlled catalog: 500 docs, each <a><k>K{i mod 50}</k><v>i</v></a>, so
   a key equality selects exactly 10 documents. *)
let controlled_catalog () =
  let catalog = Cat.create () in
  let store = DS.create "T" in
  for i = 0 to 499 do
    ignore
      (DS.insert store
         (Helpers.xml
            (Printf.sprintf "<a><k>K%02d</k><v>%d</v><pad>ppppppppp</pad></a>" (i mod 50) i)))
  done;
  Cat.add_table catalog store;
  ignore (Cat.runstats catalog "T");
  catalog

let def ?(table = "T") ?(dtype = D.Dstring) p =
  D.make ~table ~pattern:(Helpers.pattern p) ~dtype ()

let access ?(table = "T") p cond =
  let pattern = Helpers.pattern p in
  { R.table; pattern; condition = cond; dtype = R.dtype_of_condition cond }

let eq_str v = R.Ccompare (Xia_xpath.Ast.Eq, Xia_xpath.Ast.String_lit v)
let gt_num v = R.Ccompare (Xia_xpath.Ast.Gt, Xia_xpath.Ast.Number_lit v)

let selectivity_tests =
  [
    tc "string equality ~ 1/distinct" (fun () ->
        let catalog = controlled_catalog () in
        let stats = Cat.stats catalog "T" in
        let est =
          Sel.lookup_estimate stats (Helpers.pattern_id "/a/k") D.Dstring (eq_str "K03")
        in
        Alcotest.(check (float 0.5)) "entries" 10.0 est.Sel.entries_matched;
        Alcotest.(check (float 0.5)) "docs" 10.0 est.Sel.docs_matched);
    tc "numeric range fraction" (fun () ->
        let catalog = controlled_catalog () in
        let stats = Cat.stats catalog "T" in
        let est =
          Sel.lookup_estimate stats (Helpers.pattern_id "/a/v") D.Ddouble (gt_num 449.5)
        in
        (* v uniform 0..499; > 449.5 is ~10% *)
        Alcotest.(check bool) "about 50" true
          (est.Sel.entries_matched > 30.0 && est.Sel.entries_matched < 70.0));
    tc "numeric eq outside range is zero" (fun () ->
        let catalog = controlled_catalog () in
        let stats = Cat.stats catalog "T" in
        let est =
          Sel.lookup_estimate stats (Helpers.pattern_id "/a/v") D.Ddouble
            (R.Ccompare (Xia_xpath.Ast.Eq, Xia_xpath.Ast.Number_lit 5000.0))
        in
        Alcotest.(check (float 0.001)) "zero" 0.0 est.Sel.entries_matched);
    tc "exists matches everything on the path" (fun () ->
        let catalog = controlled_catalog () in
        let stats = Cat.stats catalog "T" in
        let est = Sel.lookup_estimate stats (Helpers.pattern_id "/a/k") D.Dstring R.Cexists in
        Alcotest.(check (float 0.5)) "entries" 500.0 est.Sel.entries_matched);
    tc "general index matches more entries than specific" (fun () ->
        let catalog = controlled_catalog () in
        let stats = Cat.stats catalog "T" in
        let q = Helpers.pattern_id "/a/v" in
        let spec = Sel.lookup_estimate ~query:q stats q D.Ddouble (gt_num 50.0) in
        let gen =
          Sel.lookup_estimate ~query:q stats (Helpers.pattern_id "/a//*") D.Ddouble
            (gt_num 50.0)
        in
        Alcotest.(check bool) "more" true
          (gen.Sel.entries_matched >= spec.Sel.entries_matched));
    tc "cross-path string-eq damping" (fun () ->
        let catalog = controlled_catalog () in
        let stats = Cat.stats catalog "T" in
        let q = Helpers.pattern_id "/a/k" in
        let spec = Sel.lookup_estimate ~query:q stats q D.Dstring (eq_str "K03") in
        let gen =
          Sel.lookup_estimate ~query:q stats (Helpers.pattern_id "/a/*") D.Dstring
            (eq_str "K03")
        in
        (* The pad/v paths contribute only a tiny collision mass. *)
        Alcotest.(check bool) "close to specific" true
          (gen.Sel.entries_matched < spec.Sel.entries_matched +. 5.0
          && gen.Sel.entries_matched >= spec.Sel.entries_matched);
        Alcotest.(check bool) "bigger population" true
          (gen.Sel.total_entries > spec.Sel.total_entries));
    tc "doc_fraction bounded by 1" (fun () ->
        let catalog = controlled_catalog () in
        let stats = Cat.stats catalog "T" in
        let f = Sel.combined_doc_fraction stats [ [ access "/a/k" R.Cexists ] ] in
        Alcotest.(check (float 0.001)) "all docs" 1.0 f);
    tc "combined_doc_fraction multiplies" (fun () ->
        let catalog = controlled_catalog () in
        let stats = Cat.stats catalog "T" in
        let a1 = access "/a/k" (eq_str "K03") in
        let a2 = access "/a/v" (gt_num 249.5) in
        let c = Sel.combined_doc_fraction stats [ [ a1 ]; [ a2 ] ] in
        (* 2% * 50% = 1% *)
        Alcotest.(check bool) "about 1%" true (c > 0.004 && c < 0.025));
  ]

let matching_tests =
  [
    tc "exact match" (fun () ->
        Alcotest.(check bool) "yes" true
          (O.index_matches (def "/a/k") (access "/a/k" (eq_str "x"))));
    tc "general pattern matches" (fun () ->
        Alcotest.(check bool) "yes" true
          (O.index_matches (def "/a//*") (access "/a/k" (eq_str "x"))));
    tc "type mismatch rejected" (fun () ->
        Alcotest.(check bool) "no" false
          (O.index_matches (def ~dtype:D.Dstring "/a/v") (access "/a/v" (gt_num 1.0))));
    tc "table mismatch rejected" (fun () ->
        Alcotest.(check bool) "no" false
          (O.index_matches (def ~table:"U" "/a/k") (access "/a/k" (eq_str "x"))));
    tc "narrower index rejected" (fun () ->
        Alcotest.(check bool) "no" false
          (O.index_matches (def "/a/k") (access "/a/*" (eq_str "x"))));
  ]

let plan_of ?(cfg = []) catalog stmt =
  Helpers.whatif_plan ~virtual_config:cfg catalog (Helpers.statement stmt)

let affected_of catalog stmt = O.affected_docs (O.prepare catalog (Helpers.statement stmt))

let plan_tests =
  [
    tc "no indexes means doc scan" (fun () ->
        let catalog = controlled_catalog () in
        match (plan_of catalog {|for $x in T/a where $x/k = "K03" return $x|}).Plan.bindings with
        | [ { plan = Plan.Doc_scan; _ } ] -> ()
        | _ -> Alcotest.fail "expected doc scan");
    tc "selective predicate picks index scan" (fun () ->
        let catalog = controlled_catalog () in
        match
          (plan_of ~cfg:[ def "/a/k" ] catalog
             {|for $x in T/a where $x/k = "K03" return $x|})
            .Plan.bindings
        with
        | [ { plan = Plan.Index_scan c; _ } ] ->
            Alcotest.(check bool) "virtual" true c.Plan.is_virtual
        | _ -> Alcotest.fail "expected index scan");
    tc "index scan is cheaper than doc scan" (fun () ->
        let catalog = controlled_catalog () in
        let base = (plan_of catalog {|for $x in T/a where $x/k = "K03" return $x|}).Plan.total_cost in
        let indexed =
          (plan_of ~cfg:[ def "/a/k" ] catalog
             {|for $x in T/a where $x/k = "K03" return $x|})
            .Plan.total_cost
        in
        Alcotest.(check bool) "cheaper" true (indexed < base));
    tc "two predicates can use index anding" (fun () ->
        let catalog = controlled_catalog () in
        let p =
          plan_of ~cfg:[ def "/a/k"; def ~dtype:D.Ddouble "/a/v" ] catalog
            {|for $x in T/a where $x/k = "K03" and $x/v > 449.5 return $x|}
        in
        match p.Plan.bindings with
        | [ { plan = Plan.Index_and [ _; _ ]; _ } ] -> ()
        | [ { plan = Plan.Index_scan _; _ } ] -> () (* acceptable if single wins *)
        | _ -> Alcotest.fail "expected an index plan");
    tc "specific index preferred over general" (fun () ->
        let catalog = controlled_catalog () in
        match
          (plan_of ~cfg:[ def "/a/k"; def "/a//*" ] catalog
             {|for $x in T/a where $x/k = "K03" return $x|})
            .Plan.bindings
        with
        | [ { plan = Plan.Index_scan c; _ } ] ->
            Alcotest.(check string) "pattern" "/a/k"
              (Xia_xpath.Pattern.to_string c.Plan.def.D.pattern)
        | _ -> Alcotest.fail "expected index scan");
    tc "normal mode ignores virtual indexes" (fun () ->
        let catalog = controlled_catalog () in
        let stmt = Helpers.statement {|for $x in T/a where $x/k = "K03" return $x|} in
        (match (Helpers.whatif_plan ~virtual_config:[ def "/a/k" ] catalog stmt).Plan.bindings with
        | [ { plan = Plan.Index_scan _; _ } ] -> ()
        | _ -> Alcotest.fail "expected an index scan what-if");
        match (O.optimize catalog stmt).Plan.bindings with
        | [ { plan = Plan.Doc_scan; _ } ] -> ()
        | _ -> Alcotest.fail "expected doc scan in normal mode");
    tc "insert cost independent of indexes" (fun () ->
        let catalog = controlled_catalog () in
        let stmt = "insert into T <a><k>K1</k><v>5</v></a>" in
        let c0 = (plan_of catalog stmt).Plan.total_cost in
        let c1 =
          (plan_of ~cfg:[ def "/a/k" ] catalog stmt).Plan.total_cost
        in
        Alcotest.(check (float 0.001)) "same" c0 c1;
        Alcotest.(check (float 0.001)) "affected" 1.0 (affected_of catalog stmt));
    tc "delete benefits from index on selector" (fun () ->
        let catalog = controlled_catalog () in
        let stmt = {|delete from T where /a[k="K03"]|} in
        let base = (plan_of catalog stmt).Plan.total_cost in
        let indexed =
          (plan_of ~cfg:[ def "/a/k" ] catalog stmt).Plan.total_cost
        in
        Alcotest.(check bool) "cheaper" true (indexed < base);
        Alcotest.(check bool) "affected ~10" true
          (Float.abs (affected_of catalog stmt -. 10.0) < 3.0));
    tc "update affected docs estimated" (fun () ->
        let catalog = controlled_catalog () in
        let affected = affected_of catalog {|update T set /a/v = "0" where /a[k="K03"]|} in
        Alcotest.(check bool) "positive" true (affected > 0.0));
    tc "plan indexes_used dedups" (fun () ->
        let catalog = controlled_catalog () in
        let p =
          plan_of ~cfg:[ def "/a/k" ] catalog {|for $x in T/a where $x/k = "K03" return $x|}
        in
        Alcotest.(check int) "one" 1 (List.length (Plan.indexes_used p)));
    tc "counters accumulate" (fun () ->
        let catalog = controlled_catalog () in
        let optimize0 = Atomic.get O.counters.O.optimize_calls in
        let enumerate0 = Atomic.get O.counters.O.enumerate_calls in
        ignore (plan_of catalog "for $x in T/a return $x");
        ignore (O.enumerate_indexes (Helpers.statement "for $x in T/a return $x"));
        Alcotest.(check int) "optimize" 1 (Atomic.get O.counters.O.optimize_calls - optimize0);
        Alcotest.(check int) "enumerate" 1
          (Atomic.get O.counters.O.enumerate_calls - enumerate0));
  ]

let enumerate_tests =
  [
    tc "enumerate returns predicate patterns" (fun () ->
        let pats =
          O.enumerate_indexes
            (Helpers.statement {|for $x in T/a where $x/k = "K03" and $x/v > 5 return $x|})
        in
        let strs =
          List.map
            (fun (_, p, d) ->
              (Xia_xpath.Pattern.to_string p, D.data_type_to_string d))
            pats
        in
        Alcotest.(check bool) "k string" true (List.mem ("/a/k", "VARCHAR") strs);
        Alcotest.(check bool) "v double" true (List.mem ("/a/v", "DOUBLE") strs);
        Alcotest.(check int) "two" 2 (List.length strs));
    tc "enumerate covers attribute predicates" (fun () ->
        let pats =
          O.enumerate_indexes
            (Helpers.statement {|for $x in T/a where $x/@id = "7" return $x|})
        in
        Alcotest.(check int) "one" 1 (List.length pats));
    tc "enumerate of unconstrained query is empty" (fun () ->
        Alcotest.(check int) "none" 0
          (List.length
             (O.enumerate_indexes (Helpers.statement "for $x in T/a return $x"))));
    tc "enumerate of insert is empty" (fun () ->
        Alcotest.(check int) "none" 0
          (List.length (O.enumerate_indexes (Helpers.statement "insert into T <a/>"))));
  ]

(* Consistency invariants tying the two optimizer modes together. *)
let consistency_tests =
  [
    tc "virtual and real estimates agree for the same definitions" (fun () ->
        let catalog = controlled_catalog () in
        let stmt = Helpers.statement {|for $x in T/a where $x/k = "K03" return $x|} in
        let d = def "/a/k" in
        let virtual_cost =
          (Helpers.whatif_plan ~virtual_config:[ d ] catalog stmt).Plan.total_cost
        in
        ignore (Cat.create_index catalog d);
        let real_cost =
          (O.optimize catalog stmt).Plan.total_cost
        in
        Alcotest.(check (float 0.0001)) "same" virtual_cost real_cost);
    tc "adding a virtual index never increases a query's cost" (fun () ->
        let catalog = controlled_catalog () in
        let stmts =
          List.map Helpers.statement
            [
              {|for $x in T/a where $x/k = "K03" return $x|};
              "for $x in T/a where $x/v > 250 return $x";
              "for $x in T/a return $x";
            ]
        in
        List.iter
          (fun stmt ->
            let base = (Helpers.whatif_plan catalog stmt).Plan.total_cost in
            let indexed =
              (Helpers.whatif_plan
                 ~virtual_config:[ def "/a/k"; def ~dtype:D.Ddouble "/a/v"; def "/a//*" ]
                 catalog stmt)
                .Plan.total_cost
            in
            Alcotest.(check bool) "monotone" true (indexed <= base))
          stmts);
    tc "costs are positive and finite" (fun () ->
        let catalog = controlled_catalog () in
        List.iter
          (fun q ->
            let c = (plan_of catalog q).Plan.total_cost in
            Alcotest.(check bool) q true (c > 0.0 && Float.is_finite c))
          [
            "for $x in T/a return $x";
            "insert into T <a><k>K00</k></a>";
            {|delete from T where /a[k="K03"]|};
            {|update T set /a/v = "1" where /a[k="K03"]|};
          ]);
    tc "empty table plans gracefully" (fun () ->
        let catalog = Cat.create () in
        Cat.add_table catalog (DS.create "E");
        ignore (Cat.runstats catalog "E");
        let p = plan_of catalog {|for $x in E/a where $x/k = "v" return $x|} in
        Alcotest.(check bool) "finite" true (Float.is_finite p.Plan.total_cost);
        Alcotest.(check (float 0.001)) "no docs" 0.0
          (match p.Plan.bindings with [ b ] -> b.Plan.est_docs | _ -> -1.0));
  ]

let suites =
  [
    ("optimizer.selectivity", selectivity_tests);
    ("optimizer.matching", matching_tests);
    ("optimizer.plans", plan_tests);
    ("optimizer.enumerate", enumerate_tests);
    ("optimizer.consistency", consistency_tests);
  ]
