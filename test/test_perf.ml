(* Differential suites for the sublinear matching machinery: the trie walk
   against the linear NFA oracle on fuzzed data, interner determinism and
   uniqueness, and the sub-configuration cache's counters across two
   evaluators. *)

module Pattern = Xia_xpath.Pattern
module Interner = Xia_xpath.Interner
module Path_stats = Xia_storage.Path_stats
module Doc_store = Xia_storage.Doc_store
module Catalog = Xia_index.Catalog
module Index_def = Xia_index.Index_def
module Candidate = Xia_advisor.Candidate
module Benefit = Xia_advisor.Benefit
module Enumeration = Xia_advisor.Enumeration

let tc name f = Alcotest.test_case name `Quick f

let keys infos = List.map Path_stats.key infos

(* ---------------- trie walk ≡ linear filter ---------------- *)

(* The oracle: one full NFA run per dataguide path, in [infos] order. *)
let matching_linear (t : Path_stats.t) pattern =
  List.filter
    (fun info -> Xia_xpath.Nfa.accepts (Pattern.nfa_of pattern) (Path_stats.path info))
    (Array.to_list t.infos)

let stats_of_docs docs =
  let store = Doc_store.create "FUZZ" in
  List.iter (fun d -> ignore (Doc_store.insert store d)) docs;
  Path_stats.collect store

let trie_tests =
  [
    tc "matching equals the linear oracle on the tiny TPoX tables" (fun () ->
        let catalog = Lazy.force Helpers.shared_catalog in
        List.iter
          (fun table ->
            let stats = Catalog.stats catalog table in
            List.iter
              (fun s ->
                let p = Helpers.pattern s in
                Alcotest.(check (list string))
                  (Printf.sprintf "%s ~ %s" table s)
                  (keys (matching_linear stats p))
                  (keys (Path_stats.matching stats p)))
              [
                "/Security/Symbol"; "/Security//*"; "//Yield"; "/Security/SecInfo/*/Sector";
                "//@id"; "/*"; "//*"; "/Nothing/Here"; "//Price/LastTrade";
              ])
          (Catalog.table_names catalog));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:200 ~name:"trie matching ≡ linear matching (fuzzed)"
         (QCheck.pair
            (QCheck.make
               ~print:(fun ds -> String.concat "\n" (List.map Xia_xml.Printer.to_string ds))
               QCheck.Gen.(list_size (int_range 1 8) Helpers.doc_gen))
            Helpers.pattern_arbitrary)
         (fun (docs, pat) ->
           let stats = stats_of_docs docs in
           keys (Path_stats.matching stats pat)
           = keys (matching_linear stats pat)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:200
         ~name:"matching is stable across repeated (cached) calls"
         (QCheck.pair
            (QCheck.make
               ~print:(fun ds -> String.concat "\n" (List.map Xia_xml.Printer.to_string ds))
               QCheck.Gen.(list_size (int_range 1 5) Helpers.doc_gen))
            Helpers.pattern_arbitrary)
         (fun (docs, pat) ->
           let stats = stats_of_docs docs in
           let first = keys (Path_stats.matching stats pat) in
           let second = keys (Path_stats.matching stats pat) in
           first = second));
  ]

(* ---------------- interner ---------------- *)

let interner_tests =
  [
    tc "intern is idempotent and injective" (fun () ->
        let t : string Interner.t = Interner.create () in
        let a = Interner.intern t "alpha" in
        let b = Interner.intern t "beta" in
        Alcotest.(check int) "same value, same id" a (Interner.intern t "alpha");
        Alcotest.(check bool) "distinct values, distinct ids" true (a <> b);
        Alcotest.(check string) "value round-trips" "alpha" (Interner.value t a);
        Alcotest.(check (option int)) "find sees interned" (Some b) (Interner.find t "beta");
        Alcotest.(check (option int)) "find misses fresh" None (Interner.find t "gamma");
        Alcotest.(check int) "size counts distinct" 2 (Interner.size t));
    tc "pattern ids agree with structural equality" (fun () ->
        let p1 = Helpers.pattern "/Security/Symbol" in
        let p2 = Helpers.pattern "/Security/Symbol" in
        let p3 = Helpers.pattern "//Symbol" in
        Alcotest.(check int) "equal patterns share an id" (Pattern.id p1) (Pattern.id p2);
        Alcotest.(check bool) "distinct patterns differ" true (Pattern.id p1 <> Pattern.id p3));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300 ~name:"Pattern.id equal iff Pattern.equal (fuzzed)"
         (QCheck.pair Helpers.pattern_arbitrary Helpers.pattern_arbitrary)
         (fun (p1, p2) ->
           Bool.equal (Pattern.equal p1 p2) (Pattern.id p1 = Pattern.id p2)));
    tc "logical_id agrees with logical_key" (fun () ->
        let def table pat dtype =
          Index_def.make ~table ~pattern:(Helpers.pattern pat) ~dtype ()
        in
        let pairs =
          [
            (def "T" "/a/b" Index_def.Dstring, def "T" "/a/b" Index_def.Dstring, true);
            (def "T" "/a/b" Index_def.Dstring, def "T" "/a/b" Index_def.Ddouble, false);
            (def "T" "/a/b" Index_def.Dstring, def "U" "/a/b" Index_def.Dstring, false);
            (def "T" "/a/b" Index_def.Dstring, def "T" "//b" Index_def.Dstring, false);
          ]
        in
        List.iter
          (fun (a, b, same) ->
            Alcotest.(check bool)
              (Index_def.logical_key a ^ " vs " ^ Index_def.logical_key b)
              same
              (Index_def.logical_id a = Index_def.logical_id b))
          pairs);
    tc "cache computes once per key" (fun () ->
        let cache : (int, int) Interner.Cache.t = Interner.Cache.create () in
        let computed = ref 0 in
        let compute k () =
          incr computed;
          k * 7
        in
        let results =
          Array.init 50 (fun i -> Interner.Cache.find_or_compute cache (i mod 10) compute (i mod 10) ())
        in
        Array.iteri (fun i v -> Alcotest.(check int) "computed value" ((i mod 10) * 7) v) results;
        Alcotest.(check int) "one compute per key" 10 !computed;
        Alcotest.(check (option int)) "find after compute" (Some 21) (Interner.Cache.find cache 3));
  ]

(* ---------------- sub-configuration cache determinism ---------------- *)

let cache_tests =
  [
    tc "counters and benefits identical across two evaluators" (fun () ->
        let catalog = Lazy.force Helpers.shared_catalog in
        let workload =
          Xia_workload.Workload.of_strings
            [
              {|for $s in SECURITY('SDOC')/Security where $s/Symbol = "BCIIPRC" return $s|};
              {|for $s in SECURITY('SDOC')/Security[Yield>4.5] where $s/SecInfo/*/Sector = "Energy" return $s|};
              {|for $c in CUSTACC('CADOC')/Customer where $c/Nationality = "Norway" return $c|};
            ]
        in
        let run () =
          let ev = Benefit.create catalog workload in
          let set = Enumeration.candidates catalog workload in
          let basics = Candidate.basics set in
          let b_all = Benefit.benefit ev basics in
          let b_each = List.map (Benefit.individual_benefit ev) basics in
          let b_again = Benefit.benefit ev basics in
          ( b_all,
            b_each,
            b_again,
            Benefit.evaluations ev,
            Benefit.cache_hits ev,
            Benefit.cached_sub_configs ev )
        in
        let a1, e1, g1, ev1, h1, c1 = run () in
        let a3, e3, g3, ev3, h3, c3 = run () in
        Alcotest.(check (float 0.0)) "config benefit" a1 a3;
        List.iter2 (fun x y -> Alcotest.(check (float 0.0)) "individual benefit" x y) e1 e3;
        Alcotest.(check (float 0.0)) "cached re-read" g1 g3;
        Alcotest.(check int) "evaluations" ev1 ev3;
        Alcotest.(check int) "cache hits" h1 h3;
        Alcotest.(check int) "cached sub-configs" c1 c3;
        Alcotest.(check bool) "second benefit call hit the cache" true (h1 > 0));
    tc "candidate_size is memoized and matches Candidate.size" (fun () ->
        let catalog = Lazy.force Helpers.shared_catalog in
        let workload =
          Xia_workload.Workload.of_strings
            [ {|for $s in SECURITY('SDOC')/Security where $s/Symbol = "BCIIPRC" return $s|} ]
        in
        let ev = Benefit.create catalog workload in
        let set = Enumeration.candidates catalog workload in
        List.iter
          (fun c ->
            let direct = Candidate.size catalog c in
            Alcotest.(check int) "first read" direct (Benefit.candidate_size ev c);
            Alcotest.(check int) "memoized read" direct (Benefit.candidate_size ev c))
          (Candidate.to_list set);
        let config = Candidate.basics set in
        Alcotest.(check int)
          "config_size sums members"
          (List.fold_left (fun acc c -> acc + Candidate.size catalog c) 0 config)
          (Benefit.config_size ev config));
  ]

let suites =
  [
    ("perf.trie", trie_tests);
    ("perf.interner", interner_tests);
    ("perf.cache", cache_tests);
  ]
