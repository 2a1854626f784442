(* Tests for physical execution: index plans must return exactly what a full
   scan returns, and DML must mutate the store correctly. *)

module E = Xia_optimizer.Executor
module O = Xia_optimizer.Optimizer
module Plan = Xia_optimizer.Plan
module Cat = Xia_index.Catalog
module D = Xia_index.Index_def
module DS = Xia_storage.Doc_store

let tc name f = Alcotest.test_case name `Quick f

(* 400 docs; a key equality selects 10, so index plans actually win. *)
let small_catalog () =
  let catalog = Cat.create () in
  let store = DS.create "T" in
  for i = 0 to 399 do
    ignore
      (DS.insert store
         (Helpers.xml (Printf.sprintf "<a><k>K%02d</k><v>%d</v></a>" (i mod 40) i)))
  done;
  Cat.add_table catalog store;
  ignore (Cat.runstats catalog "T");
  catalog

let def ?(dtype = D.Dstring) p = D.make ~table:"T" ~pattern:(Helpers.pattern p) ~dtype ()

let rows catalog stmt = (E.run_statement catalog (Helpers.statement stmt)).E.rows

let correctness_tests =
  [
    tc "docscan counts bound nodes" (fun () ->
        let catalog = small_catalog () in
        Alcotest.(check int) "all" 400 (rows catalog "for $x in T/a return $x");
        Alcotest.(check int) "filtered" 10 (rows catalog {|for $x in T/a where $x/k = "K02" return $x|}));
    tc "index scan returns same rows as docscan" (fun () ->
        let catalog = small_catalog () in
        let q = {|for $x in T/a where $x/k = "K02" return $x|} in
        let before = rows catalog q in
        ignore (Cat.create_index catalog (def "/a/k"));
        let r = E.run_statement catalog (Helpers.statement q) in
        Alcotest.(check int) "same rows" before r.E.rows;
        Alcotest.(check bool) "used index" true (r.E.metrics.E.docs_fetched > 0);
        Alcotest.(check int) "no scan" 0 r.E.metrics.E.docs_scanned);
    tc "general index also returns correct rows" (fun () ->
        let catalog = small_catalog () in
        let q = {|for $x in T/a where $x/k = "K02" return $x|} in
        let before = rows catalog q in
        ignore (Cat.create_index catalog (def "/a//*"));
        Alcotest.(check int) "same" before (rows catalog q));
    tc "numeric range via index" (fun () ->
        let catalog = small_catalog () in
        let q = "for $x in T/a where $x/v >= 395 return $x" in
        let before = rows catalog q in
        Alcotest.(check int) "five" 5 before;
        ignore (Cat.create_index catalog (def ~dtype:D.Ddouble "/a/v"));
        Alcotest.(check int) "same" before (rows catalog q));
    tc "index anding returns intersection" (fun () ->
        let catalog = small_catalog () in
        let q = {|for $x in T/a where $x/k = "K02" and $x/v > 200 return $x|} in
        let before = rows catalog q in
        ignore (Cat.create_index catalog (def "/a/k"));
        ignore (Cat.create_index catalog (def ~dtype:D.Ddouble "/a/v"));
        Alcotest.(check int) "same" before (rows catalog q));
    tc "ne condition via index" (fun () ->
        let catalog = small_catalog () in
        let q = {|for $x in T/a where $x/k != "K02" return $x|} in
        let before = rows catalog q in
        Alcotest.(check int) "rest" 390 before;
        ignore (Cat.create_index catalog (def "/a/k"));
        Alcotest.(check int) "same" before (rows catalog q));
    tc "multi-binding product semantics" (fun () ->
        let catalog = small_catalog () in
        Alcotest.(check int) "10*5" 50
          (rows catalog {|for $x in T/a, $y in T/a where $x/k = "K02" and $y/v >= 395 return $x|}));
    tc "virtual-only plan falls back to scan" (fun () ->
        let catalog = small_catalog () in
        let plan =
          O.optimize ~mode:O.Evaluate ~virtual_config:[ def "/a/k" ] catalog
            (Helpers.statement {|for $x in T/a where $x/k = "K02" return $x|})
        in
        let r = E.run_plan catalog plan in
        Alcotest.(check int) "rows" 10 r.E.rows;
        Alcotest.(check bool) "scanned" true (r.E.metrics.E.docs_scanned > 0));
  ]

let dml_tests =
  [
    tc "update through an index rewrites documents in probe order" (fun () ->
        (* The order an update visits its victims fixes the order its
           charges are summed in and the order it writes them, which is
           what is checked: [touched_since] lists ids by their last write.
           The indexed values fall as ids rise, so the probe's ascending
           keys visit the ids in descending order. *)
        let catalog = Cat.create () in
        let store = DS.create "T" in
        for i = 0 to 399 do
          ignore (DS.insert store (Helpers.xml (Printf.sprintf "<a><k>K</k><v>%d</v></a>" (399 - i))))
        done;
        Cat.add_table catalog store;
        ignore (Cat.runstats catalog "T");
        ignore (Cat.create_index catalog (def ~dtype:D.Ddouble "/a/v"));
        let gen0 = DS.generation store in
        let r = E.run_statement catalog (Helpers.statement {|update T set /a/k = "X" where /a[v<10]|}) in
        Alcotest.(check bool) "fetched" true (r.E.metrics.E.docs_fetched > 0);
        Alcotest.(check (list int)) "probe order"
          (List.init 10 (fun i -> 399 - i))
          (DS.touched_since store gen0));
    tc "insert adds a document" (fun () ->
        let catalog = small_catalog () in
        let n0 = DS.doc_count (Cat.store catalog "T") in
        Alcotest.(check int) "one row" 1
          (rows catalog "insert into T <a><k>K9</k><v>100</v></a>");
        Alcotest.(check int) "count" (n0 + 1) (DS.doc_count (Cat.store catalog "T")));
    tc "delete removes matching documents" (fun () ->
        let catalog = small_catalog () in
        Alcotest.(check int) "ten deleted" 10 (rows catalog {|delete from T where /a[k="K02"]|});
        Alcotest.(check int) "rest left" 390 (DS.doc_count (Cat.store catalog "T"));
        Alcotest.(check int) "none match" 0 (rows catalog {|for $x in T/a where $x/k = "K02" return $x|}));
    tc "delete via index same effect" (fun () ->
        let c1 = small_catalog () in
        let c2 = small_catalog () in
        ignore (Cat.create_index c2 (def "/a/k"));
        Alcotest.(check int) "same" (rows c1 {|delete from T where /a[k="K02"]|})
          (rows c2 {|delete from T where /a[k="K02"]|}));
    tc "update rewrites values" (fun () ->
        let catalog = small_catalog () in
        Alcotest.(check int) "updated" 10
          (rows catalog {|update T set /a/v = "999" where /a[k="K02"]|});
        Alcotest.(check int) "now match" 10
          (rows catalog "for $x in T/a where $x/v = 999 return $x"));
    tc "stale index refreshed before next query" (fun () ->
        let catalog = small_catalog () in
        ignore (Cat.create_index catalog (def "/a/k"));
        ignore (rows catalog "insert into T <a><k>K02</k><v>777</v></a>");
        Alcotest.(check int) "eleven" 11 (rows catalog {|for $x in T/a where $x/k = "K02" return $x|}));
    tc "set_value replaces direct text only" (fun () ->
        let doc = Helpers.packed (Helpers.xml "<a><b>old<c>keep</c></b></a>") in
        let doc' = E.set_value doc (Helpers.xpath "/a/b") "new" in
        Alcotest.(check string) "rewritten" "<a><b>new<c>keep</c></b></a>"
          (Xia_xml.Printer.to_string (Xia_xml.Packed.unpack doc')));
  ]

(* Property: for random synthetic queries, the indexed run always returns the
   same row count as the unindexed run. *)
let property_tests =
  [
    QCheck.Test.make ~count:500 ~name:"packed set_value = tree oracle"
      (QCheck.quad Helpers.doc_arbitrary Helpers.xpath_arbitrary Helpers.xpath_arbitrary
         (QCheck.make ~print:Fun.id Helpers.text_gen))
      (fun (doc, first, second, v) ->
        (* Two updates in a row, the second over the first's output; the
           input document is copied, never changed. *)
        let packed = Helpers.packed doc in
        let once = E.set_value packed first v in
        let twice = E.set_value once second (v ^ "!") in
        let expected = Eval_oracle.set_value (Eval_oracle.set_value doc first v) second (v ^ "!") in
        Xia_xml.Types.equal (Xia_xml.Packed.unpack twice) expected
        && twice.bytes = Xia_xml.Types.byte_size expected
        && Xia_xml.Packed.elements twice = Xia_xml.Types.count_elements expected
        && Xia_xml.Types.equal (Xia_xml.Packed.unpack packed) doc);
    QCheck.Test.make ~count:30 ~name:"indexed execution agrees with scans"
      QCheck.(int_range 0 10_000)
      (fun seed ->
        let catalog = Helpers.fresh_tiny_catalog () in
        let tables = Cat.table_names catalog in
        let wl = Xia_workload.Synthetic.workload ~seed catalog tables 3 in
        let before =
          List.map
            (fun (i : Xia_workload.Workload.item) ->
              (E.run_statement catalog i.statement).E.rows)
            wl
        in
        (* Index every enumerated pattern and re-run. *)
        List.iter
          (fun (i : Xia_workload.Workload.item) ->
            List.iter
              (fun (table, pattern, dtype) ->
                let d = D.make ~table ~pattern ~dtype () in
                try ignore (Cat.create_index catalog d) with Invalid_argument _ -> ())
              (O.enumerate_indexes i.statement))
          wl;
        let after =
          List.map
            (fun (i : Xia_workload.Workload.item) ->
              (E.run_statement catalog i.statement).E.rows)
            wl
        in
        before = after);
  ]

(* The optimizer's estimate and the executor's simulated cost are priced by
   the same charges.  On identical documents every term of a document scan
   is an integer, so the executed cost equals the estimate less the result
   CPU, which only the optimizer charges, exactly: a scan or verification
   charge changed on one side alone breaks the equality. *)
let coupling_tests =
  [
    tc "document scan: executed cost = estimate - result CPU" (fun () ->
        let catalog = Cat.create () in
        let store = DS.create "T" in
        for _ = 1 to 250 do
          ignore (DS.insert store (Helpers.xml "<a><k>K01</k><v>7</v><w><x>y</x></w></a>"))
        done;
        Cat.add_table catalog store;
        ignore (Cat.runstats catalog "T");
        let stmt = Helpers.statement "for $x in T/a return $x" in
        match (O.optimize ~mode:O.Normal catalog stmt).Plan.bindings with
        | [ { plan = Plan.Doc_scan; est_cost; est_docs; _ } ] ->
            let estimated = est_cost -. (est_docs *. Xia_storage.Cost_params.cpu_per_result) in
            let executed = (E.run_statement catalog stmt).E.metrics.E.simulated_cost in
            if not (Float.equal executed estimated) then
              Alcotest.failf "executed %h, estimated %h" executed estimated
        | _ -> Alcotest.fail "expected one document-scan binding");
  ]

let suites =
  [
    ("executor.correctness", correctness_tests);
    ("executor.coupling", coupling_tests);
    ("executor.dml", dml_tests);
    Helpers.qsuite "executor.properties" property_tests;
  ]
