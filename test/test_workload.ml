(* Tests for the workload abstractions and the benchmark generators. *)

module W = Xia_workload.Workload
module Tpox = Xia_workload.Tpox
module Xmark = Xia_workload.Xmark
module Syn = Xia_workload.Synthetic
module Cat = Xia_index.Catalog
module DS = Xia_storage.Doc_store

let tc name f = Alcotest.test_case name `Quick f

let workload_tests =
  [
    tc "of_strings labels sequentially" (fun () ->
        let w = W.of_strings [ "for $x in T/a return $x"; "insert into T <a/>" ] in
        Alcotest.(check (list string)) "labels" [ "S1"; "S2" ] (W.labels w));
    tc "prefix" (fun () ->
        let w = W.of_strings [ "for $x in T/a return $x"; "insert into T <a/>" ] in
        Alcotest.(check int) "one" 1 (W.size (W.prefix 1 w));
        Alcotest.(check int) "zero" 0 (W.size (W.prefix 0 w));
        Alcotest.(check int) "over" 2 (W.size (W.prefix 10 w)));
    tc "find_opt" (fun () ->
        let w = W.of_strings [ "for $x in T/a return $x" ] in
        Alcotest.(check bool) "found" true (W.find_opt w "S1" <> None);
        Alcotest.(check bool) "missing" true (W.find_opt w "S9" = None));
  ]

let tpox_tests =
  [
    tc "generator is deterministic for a seed" (fun () ->
        let rng1 = Random.State.make [| 5 |] and rng2 = Random.State.make [| 5 |] in
        Alcotest.(check string) "same"
          (Xia_xml.Printer.to_string (Tpox.security rng1 3))
          (Xia_xml.Printer.to_string (Tpox.security rng2 3)));
    tc "security docs contain the paper's paths" (fun () ->
        let rng = Random.State.make [| 1 |] in
        (* bonds/funds always carry Yield; scan a few to find one *)
        let docs = List.init 20 (fun i -> Tpox.security rng i) in
        Alcotest.(check bool) "symbol" true
          (List.for_all (fun d -> Helpers.exists_tree d (Helpers.xpath "/Security/Symbol")) docs);
        Alcotest.(check bool) "sector via wildcard" true
          (List.for_all
             (fun d -> Helpers.exists_tree d (Helpers.xpath "/Security/SecInfo/*/Sector"))
             docs);
        Alcotest.(check bool) "some yield" true
          (List.exists (fun d -> Helpers.exists_tree d (Helpers.xpath "/Security/Yield")) docs));
    tc "customer and order shapes" (fun () ->
        let rng = Random.State.make [| 2 |] in
        let c = Tpox.customer rng 7 in
        Alcotest.(check bool) "balance path" true
          (Helpers.exists_tree c
             (Helpers.xpath "/Customer/Accounts/Account/Balance/OnlineActualBal"));
        let o = Tpox.order rng 3 ~n_securities:10 ~n_customers:10 in
        Alcotest.(check bool) "order id" true
          (Helpers.exists_tree o (Helpers.xpath "/FIXML/Order/@ID")));
    tc "load creates three tables with stats" (fun () ->
        let catalog = Lazy.force Helpers.shared_catalog in
        Alcotest.(check (list string)) "tables"
          [ Tpox.custacc_table; Tpox.security_table; Tpox.order_table ]
          (Cat.table_names catalog);
        Alcotest.(check int) "securities" Tpox.tiny_scale.Tpox.securities
          (DS.doc_count (Cat.store catalog Tpox.security_table)));
    tc "eleven queries, all parseable" (fun () ->
        Alcotest.(check int) "eleven" 11 (W.size (Tpox.workload ())));
    tc "dml statements parse" (fun () ->
        Alcotest.(check int) "four" 4 (W.size (Tpox.dml ()));
        Alcotest.(check bool) "all dml" true
          (List.for_all (fun (i : W.item) -> Xia_query.Ast.is_dml i.W.statement) (Tpox.dml ())));
    tc "workload_with_updates applies frequency" (fun () ->
        let w = Tpox.workload_with_updates ~update_freq:7.0 () in
        let u = Option.get (W.find_opt w "U1") in
        Alcotest.(check (float 0.001)) "freq" 7.0 u.W.freq);
  ]

let xmark_tests =
  [
    tc "xmark load and stats" (fun () ->
        let catalog = Cat.create () in
        Xmark.load ~scale:Xmark.tiny_scale catalog;
        Alcotest.(check int) "items" Xmark.tiny_scale.Xmark.items
          (DS.doc_count (Cat.store catalog Xmark.item_table)));
    tc "xmark queries parse and expose candidates" (fun () ->
        let catalog = Cat.create () in
        Xmark.load ~scale:Xmark.tiny_scale catalog;
        let wl = Xmark.workload () in
        Alcotest.(check int) "eight" 8 (W.size wl);
        let set = Xia_advisor.Enumeration.candidates wl in
        Alcotest.(check bool) "candidates" true
          (Xia_advisor.Candidate.cardinality set > 5));
    tc "person profile income is an attribute path" (fun () ->
        let rng = Random.State.make [| 3 |] in
        let found = ref false in
        for i = 0 to 19 do
          if Helpers.exists_tree (Xmark.person rng i) (Helpers.xpath "/person/profile/@income")
          then found := true
        done;
        Alcotest.(check bool) "found" true !found);
  ]

let synthetic_tests =
  [
    tc "synthetic workload has requested size" (fun () ->
        let catalog = Lazy.force Helpers.shared_catalog in
        let wl = Syn.workload catalog (Cat.table_names catalog) 12 in
        Alcotest.(check int) "twelve" 12 (W.size wl));
    tc "synthetic is deterministic per seed" (fun () ->
        let catalog = Lazy.force Helpers.shared_catalog in
        let str wl =
          String.concat "\n"
            (List.map
               (fun (i : W.item) -> Xia_query.Printer.statement_to_string i.W.statement)
               wl)
        in
        let a = Syn.workload ~seed:11 catalog (Cat.table_names catalog) 8 in
        let b = Syn.workload ~seed:11 catalog (Cat.table_names catalog) 8 in
        let c = Syn.workload ~seed:12 catalog (Cat.table_names catalog) 8 in
        Alcotest.(check string) "same" (str a) (str b);
        Alcotest.(check bool) "different" true (str a <> str c));
    tc "synthetic queries expose indexable patterns" (fun () ->
        let catalog = Lazy.force Helpers.shared_catalog in
        let wl = Syn.workload catalog (Cat.table_names catalog) 10 in
        List.iter
          (fun (i : W.item) ->
            Alcotest.(check bool) i.W.label true
              (List.length (Xia_query.Rewriter.indexable_accesses i.W.statement) >= 1))
          wl);
    tc "synthetic paths occur in the data" (fun () ->
        let catalog = Lazy.force Helpers.shared_catalog in
        let wl = Syn.workload catalog [ Tpox.security_table ] 10 in
        let stats = Cat.stats catalog Tpox.security_table in
        List.iter
          (fun (i : W.item) ->
            List.iter
              (fun (a : Xia_query.Rewriter.access) ->
                Alcotest.(check bool)
                  (Xia_xpath.Pattern.to_string a.Xia_query.Rewriter.pattern)
                  true
                  (Xia_storage.Path_stats.matching stats a.Xia_query.Rewriter.pattern <> []))
              (Xia_query.Rewriter.indexable_accesses i.W.statement))
          wl);
  ]

let suites =
  [
    ("workload.core", workload_tests);
    ("workload.tpox", tpox_tests);
    ("workload.xmark", xmark_tests);
    ("workload.synthetic", synthetic_tests);
  ]
