(* Tests for index definitions, derived statistics, physical indexes, the
   catalog and the maintenance cost model. *)

module D = Xia_index.Index_def
module IS = Xia_index.Index_stats
module PI = Xia_index.Physical_index
module Cat = Xia_index.Catalog
module M = Xia_index.Maintenance
module DS = Xia_storage.Doc_store
module PS = Xia_storage.Path_stats

let tc name f = Alcotest.test_case name `Quick f

let def ?(table = "T") ?(dtype = D.Dstring) p =
  D.make ~table ~pattern:(Helpers.pattern p) ~dtype ()

let store_with docs =
  let s = DS.create "T" in
  List.iter (fun d -> ignore (DS.insert s (Helpers.xml d))) docs;
  s

let def_tests =
  [
    tc "fresh names are unique" (fun () ->
        let a = def "/a/b" and b = def "/a/b" in
        Alcotest.(check bool) "names differ" true (D.name a <> D.name b);
        Alcotest.(check bool) "same logically" true (D.same a b));
    tc "logical key distinguishes type" (fun () ->
        Alcotest.(check bool) "differ" true
          (D.logical_key (def ~dtype:D.Dstring "/a/b")
          <> D.logical_key (def ~dtype:D.Ddouble "/a/b")));
    tc "covers requires same table and type" (fun () ->
        Alcotest.(check bool) "covers" true
          (D.covers ~general:(def "/a//*") ~specific:(def "/a/b"));
        Alcotest.(check bool) "type mismatch" false
          (D.covers ~general:(def ~dtype:D.Ddouble "/a//*") ~specific:(def "/a/b"));
        Alcotest.(check bool) "table mismatch" false
          (D.covers ~general:(def ~table:"U" "/a//*") ~specific:(def "/a/b")));
    tc "name formats the serial as make used to" (fun () ->
        let a = def ~table:"SECURITY" ~dtype:D.Ddouble "/Security/Yield" in
        let b = def "/a//@id" in
        Alcotest.(check int) "next serial" (a.D.serial + 1) b.D.serial;
        Alcotest.(check string) "a"
          (Printf.sprintf "IDX%d_SECURITY_D__Security_Yield" a.D.serial)
          (D.name a);
        Alcotest.(check string) "b" (Printf.sprintf "IDX%d_T_S__a___id" b.D.serial) (D.name b);
        List.iter
          (fun d -> Alcotest.(check string) "oracle" (Generalize_oracle.eager_name d) (D.name d))
          [ a; b; def ~table:"U" "//*"; def ~dtype:D.Ddouble "/a/*/b" ]);
    tc "a given name is returned unchanged and draws no serial" (fun () ->
        let before = def "/a" in
        let d =
          D.make ~name:"MY-IDX" ~table:"T" ~pattern:(Helpers.pattern "/a") ~dtype:D.Dstring ()
        in
        let after = def "/a" in
        Alcotest.(check string) "given" "MY-IDX" (D.name d);
        Alcotest.(check int) "no draw" (before.D.serial + 1) after.D.serial;
        Alcotest.(check bool) "same as the generated" true (D.same d before));
    tc "a repeat make allocates a few words and no name" (fun () ->
        let pattern = Helpers.pattern "/ix_alloc/b" in
        let make () = D.make ~table:"T" ~pattern ~dtype:D.Dstring () in
        ignore (make ());
        (* interned: every later make is a hit in both interners *)
        let n = 10_000 in
        let w0 = Gc.minor_words () in
        for _ = 1 to n do
          ignore (Sys.opaque_identity (make ()))
        done;
        let per_make = (Gc.minor_words () -. w0) /. float_of_int n in
        Alcotest.(check bool)
          (Printf.sprintf "%.1f words per make <= 16" per_make)
          true (per_make <= 16.));
  ]

let stats_tests =
  [
    tc "derive counts typed entries" (fun () ->
        let st = PS.collect (store_with [ "<a><v>1</v><v>x</v><v>2</v></a>" ]) in
        let s_str = IS.derive st (def "/a/v") in
        let s_num = IS.derive st (def ~dtype:D.Ddouble "/a/v") in
        Alcotest.(check int) "string entries" 3 s_str.IS.entries;
        Alcotest.(check int) "numeric entries" 2 s_num.IS.entries;
        Alcotest.(check (float 0.001)) "min" 1.0 s_num.IS.min_num;
        Alcotest.(check (float 0.001)) "max" 2.0 s_num.IS.max_num);
    tc "derive aggregates covered paths" (fun () ->
        let st = PS.collect (store_with [ "<a><b><s>1</s></b><c><s>2</s></c></a>" ]) in
        let s = IS.derive st (def "/a//*") in
        (* b, c, s, s *)
        Alcotest.(check int) "entries" 4 s.IS.entries);
    tc "empty pattern yields empty stats with one page" (fun () ->
        let st = PS.collect (store_with [ "<a/>" ]) in
        let s = IS.derive st (def "/zzz") in
        Alcotest.(check int) "entries" 0 s.IS.entries;
        Alcotest.(check int) "size" Xia_storage.Cost_params.page_size s.IS.size_bytes);
    tc "matched_docs clamped by table size" (fun () ->
        let st = PS.collect (store_with [ "<a><b>1</b><c>2</c></a>" ]) in
        let s = IS.derive st (def "/a/*") in
        Alcotest.(check int) "docs" 1 s.IS.matched_docs);
    tc "general index is at least as large" (fun () ->
        let st =
          PS.collect
            (store_with [ "<a><b>alpha</b><c>beta</c></a>"; "<a><b>gamma</b></a>" ])
        in
        let spec = IS.derive st (def "/a/b") in
        let gen = IS.derive st (def "/a//*") in
        Alcotest.(check bool) "bigger" true (gen.IS.size_bytes >= spec.IS.size_bytes);
        Alcotest.(check bool) "more entries" true (gen.IS.entries >= spec.IS.entries));
    tc "btree shape monotone in entries" (fun () ->
        let s1, l1, v1 = IS.btree_shape ~entries:100 ~avg_key_bytes:8.0 in
        let s2, l2, v2 = IS.btree_shape ~entries:1_000_000 ~avg_key_bytes:8.0 in
        Alcotest.(check bool) "size" true (s2 > s1);
        Alcotest.(check bool) "leaves" true (l2 > l1);
        Alcotest.(check bool) "levels" true (v2 >= v1 && v1 >= 1));
    tc "derive_cached memoizes per statistics object" (fun () ->
        let store = store_with [ "<a><b>1</b></a>" ] in
        let st = PS.collect store in
        let d = def "/a/b" in
        Alcotest.(check bool) "same" true (IS.derive_cached st d == IS.derive_cached st d));
    tc "derive_cached never answers with another catalog's statistics" (fun () ->
        (* Tiny TPoX under seeds 7 and 8: the stores saw as many writes, so
           their statistics share a generation, but not their values. *)
        let stats_of seed =
          let catalog = Cat.create () in
          Xia_workload.Tpox.load ~scale:Xia_workload.Tpox.tiny_scale ~seed catalog;
          let defs =
            List.map
              (fun (c : Xia_advisor.Candidate.t) -> c.def)
              (Xia_advisor.Candidate.basics
                 (Xia_advisor.Enumeration.basic_candidates catalog (Xia_workload.Tpox.workload ())))
          in
          List.map (fun (d : D.t) -> (Cat.stats catalog d.table, d)) defs
        in
        let seed7 = stats_of 7 and seed8 = stats_of 8 in
        List.iter (fun (st, d) -> ignore (IS.derive_cached st d)) seed7;
        List.iter
          (fun (st, d) ->
            Alcotest.(check bool) (D.name d) true
              (compare (IS.derive st d) (IS.derive_cached st d) = 0))
          seed8);
  ]

let entry_values entries = List.map (fun (e : PI.entry) -> e.PI.key) entries

let physical_tests =
  [
    tc "build collects covered nodes" (fun () ->
        let s = store_with [ "<a><b>x</b><b>y</b></a>"; "<a><b>x</b></a>" ] in
        let pi = PI.build s (def "/a/b") in
        Alcotest.(check int) "entries" 3 (PI.entry_count pi));
    tc "lookup_eq" (fun () ->
        let s = store_with [ "<a><b>x</b><b>y</b></a>"; "<a><b>x</b></a>" ] in
        let pi = PI.build s (def "/a/b") in
        Alcotest.(check int) "x" 2 (List.length (PI.lookup_eq pi (PI.Kstring "x")));
        Alcotest.(check int) "y" 1 (List.length (PI.lookup_eq pi (PI.Kstring "y")));
        Alcotest.(check int) "none" 0 (List.length (PI.lookup_eq pi (PI.Kstring "z"))));
    tc "numeric index rejects invalid values" (fun () ->
        let s = store_with [ "<a><v>1</v><v>junk</v><v>2.5</v></a>" ] in
        let pi = PI.build s (def ~dtype:D.Ddouble "/a/v") in
        Alcotest.(check int) "entries" 2 (PI.entry_count pi));
    tc "range lookup inclusive/exclusive" (fun () ->
        let s = store_with [ "<a><v>1</v><v>2</v><v>3</v><v>4</v></a>" ] in
        let pi = PI.build s (def ~dtype:D.Ddouble "/a/v") in
        let range lo hi = List.length (PI.lookup_range pi ~lo ~hi) in
        Alcotest.(check int) "all" 4 (range PI.Unbounded PI.Unbounded);
        Alcotest.(check int) ">=2" 3 (range (PI.Inclusive (PI.Kdouble 2.0)) PI.Unbounded);
        Alcotest.(check int) ">2" 2 (range (PI.Exclusive (PI.Kdouble 2.0)) PI.Unbounded);
        Alcotest.(check int) "<3" 2 (range PI.Unbounded (PI.Exclusive (PI.Kdouble 3.0)));
        Alcotest.(check int) "2..3" 2
          (range (PI.Inclusive (PI.Kdouble 2.0)) (PI.Inclusive (PI.Kdouble 3.0))));
    tc "lookup_ne" (fun () ->
        let s = store_with [ "<a><v>1</v><v>2</v><v>2</v></a>" ] in
        let pi = PI.build s (def ~dtype:D.Ddouble "/a/v") in
        Alcotest.(check int) "ne 2" 1 (List.length (PI.lookup_ne pi (PI.Kdouble 2.0))));
    tc "entries sorted by key" (fun () ->
        let s = store_with [ "<a><v>3</v><v>1</v><v>2</v></a>" ] in
        let pi = PI.build s (def ~dtype:D.Ddouble "/a/v") in
        let keys = entry_values (PI.all pi) in
        Alcotest.(check bool) "sorted" true
          (keys = List.sort PI.compare_key keys));
    tc "attribute pattern indexes attributes" (fun () ->
        let s = store_with [ {|<a id="7"><b id="8"/></a>|} ] in
        let pi = PI.build s (def "//@id") in
        Alcotest.(check int) "entries" 2 (PI.entry_count pi));
    tc "wildcard pattern build indexes every matching child" (fun () ->
        let s = store_with [ "<a><b>1</b><c>2</c></a>"; "<a><b>3</b></a>" ] in
        let pi = PI.build s (def "/a/*") in
        Alcotest.(check int) "entries" 3 (PI.entry_count pi));
    tc "size_bytes consistent with virtual model" (fun () ->
        let s = store_with [ "<a><b>hello</b><b>world</b></a>" ] in
        let st = PS.collect s in
        let d = def "/a/b" in
        let pi = PI.build s d in
        Alcotest.(check int) "same size" (IS.derive st d).IS.size_bytes (PI.size_bytes pi));
    tc "distinct_doc_count" (fun () ->
        let s = store_with [ "<a><b>x</b><b>y</b></a>"; "<a><b>z</b></a>" ] in
        let pi = PI.build s (def "/a/b") in
        let docs = List.sort_uniq compare (List.map (fun (e : PI.entry) -> e.PI.doc) (PI.all pi)) in
        Alcotest.(check int) "docs" 2 (List.length docs));
    tc "key_of_value conversion" (fun () ->
        Alcotest.(check bool) "str" true
          (PI.key_of_value D.Dstring "abc" = Some (PI.Kstring "abc"));
        Alcotest.(check bool) "num" true
          (PI.key_of_value D.Ddouble "4.5" = Some (PI.Kdouble 4.5));
        Alcotest.(check bool) "reject" true (PI.key_of_value D.Ddouble "abc" = None));
  ]

(* Incremental maintenance: refreshing an index after a change (walking
   only the documents written since its build) must be indistinguishable
   from rebuilding it. *)
let same_entries a b =
  let l pi = List.map (fun (e : PI.entry) -> (e.PI.key, e.PI.doc, e.PI.node)) (PI.all pi) in
  l a = l b

let incremental_tests =
  [
    tc "insert via change leaves refresh equal to rebuild" (fun () ->
        let s = store_with [ "<a><b>x</b></a>" ] in
        let pi = PI.build s (def "/a/b") in
        ignore (DS.insert s (Helpers.xml "<a><b>y</b><b>z</b></a>"));
        let inc = PI.refresh s pi in
        Alcotest.(check bool) "equal" true (same_entries inc (PI.build s (def "/a/b")));
        Alcotest.(check int) "three" 3 (PI.entry_count inc);
        Alcotest.(check int) "fresh" (DS.generation s) (PI.built_generation inc));
    tc "delete via change leaves refresh equal to rebuild" (fun () ->
        let s = store_with [ "<a><b>x</b></a>"; "<a><b>y</b></a>" ] in
        let pi = PI.build s (def "/a/b") in
        ignore (DS.delete s 0);
        let inc = PI.refresh s pi in
        Alcotest.(check bool) "equal" true (same_entries inc (PI.build s (def "/a/b")));
        Alcotest.(check int) "one" 1 (PI.entry_count inc));
    tc "replace via change leaves refresh equal to rebuild" (fun () ->
        let s = store_with [ "<a><b>x</b></a>" ] in
        let pi = PI.build s (def "/a/b") in
        ignore (Helpers.replace s 0 (Helpers.xml "<a><b>q</b><c/></a>"));
        let inc = PI.refresh s pi in
        Alcotest.(check bool) "equal" true (same_entries inc (PI.build s (def "/a/b"))));
    tc "one refresh closure serves indexes of several generations" (fun () ->
        (* [PI.refresh s] shares the documents written since a build among
           the indexes built at that generation: an index built earlier, or
           a write between two applications, must not see a stale share. *)
        let s = store_with [ "<a><b>1</b><c>1</c></a>" ] in
        let b = PI.build s (def "/a/b") in
        ignore (DS.insert s (Helpers.xml "<a><b>2</b><c>2</c></a>"));
        let c = PI.build s (def "/a/c") in
        ignore (Helpers.replace s 0 (Helpers.xml "<a><b>3</b><c>3</c></a>"));
        let refresh = PI.refresh s in
        let c' = refresh c in
        let b' = refresh b in
        Alcotest.(check bool) "c" true (same_entries c' (PI.build s (def "/a/c")));
        Alcotest.(check bool) "b, built earlier" true
          (same_entries b' (PI.build s (def "/a/b")));
        (* the share is c's generation's again, then a write follows *)
        ignore (refresh c);
        ignore (DS.delete s 1);
        Alcotest.(check bool) "c after a write" true
          (same_entries (refresh c) (PI.build s (def "/a/c"))));
    tc "catalog refresh uses incremental path transparently" (fun () ->
        let c = Cat.create () in
        Cat.add_table c (store_with [ "<a><b>1</b></a>" ]);
        ignore (Cat.create_index c (def "/a/b"));
        for i = 2 to 5 do
          ignore
            (DS.insert (Cat.store c "T") (Helpers.xml (Printf.sprintf "<a><b>%d</b></a>" i)))
        done;
        ignore (DS.delete (Cat.store c "T") 0);
        Cat.refresh_indexes c;
        match Cat.real_indexes c "T" with
        | [ pi ] ->
            Alcotest.(check int) "entries" 4 (PI.entry_count pi);
            Alcotest.(check int) "fresh" (DS.generation (Cat.store c "T"))
              (PI.built_generation pi)
        | _ -> Alcotest.fail "expected one index");
  ]

(* Random linear patterns: mostly a generalization of a label path that
   occurs in the documents (some names made wildcards, some steps dropped
   behind a descendant step), so that builds find entries next to pruned
   subtrees; otherwise [Helpers.pattern_gen]'s steps plus attribute
   wildcards. *)
let oracle_pattern_gen docs =
  QCheck.Gen.(
    let module A = Xia_xpath.Ast in
    let random_step =
      map2
        (fun axis test -> { Xia_xpath.Pattern.axis; test })
        (oneofl [ A.Child; A.Descendant ])
        (frequency
           [
             (4, map (fun t -> A.Elem (A.Name t)) Helpers.tag_gen);
             (1, return (A.Elem A.Wildcard));
             (1, map (fun t -> A.Attr (A.Name t)) (oneofl [ "id"; "Sym" ]));
             (1, return (A.Attr A.Wildcard));
           ])
    in
    let generalize label =
      let attr = String.length label > 0 && label.[0] = '@' in
      let name = if attr then String.sub label 1 (String.length label - 1) else label in
      let* wildcard = map (fun n -> n = 0) (int_bound 3) in
      let* axis = frequency [ (3, return A.Child); (1, return A.Descendant) ] in
      let* drop = map (fun n -> n = 0) (int_bound 4) in
      let test =
        match attr, wildcard with
        | true, true -> A.Attr A.Wildcard
        | true, false -> A.Attr (A.Name name)
        | false, true -> A.Elem A.Wildcard
        | false, false -> A.Elem (A.Name name)
      in
      return (drop, { Xia_xpath.Pattern.axis; test })
    in
    (* A dropped step turns the next kept one into a descendant step. *)
    let rec assemble pending = function
      | [] -> []
      | (true, _) :: rest -> assemble true rest
      | (false, (st : Xia_xpath.Pattern.step)) :: rest ->
          let st = if pending then { st with axis = A.Descendant } else st in
          st :: assemble false rest
    in
    let paths = ref [] in
    List.iter (Walk_oracle.iter_nodes (fun _ _ path _ -> paths := path :: !paths)) docs;
    let from_data =
      let* path = oneofl !paths in
      let* steps = flatten_l (List.map generalize path) in
      return (match assemble false steps with [] -> [ snd (List.hd steps) ] | l -> l)
    in
    frequency [ (3, from_data); (1, list_size (int_range 1 5) random_step) ])

let oracle_build_arbitrary =
  QCheck.make
    ~print:(fun (p, dtype, docs) ->
      Printf.sprintf "%s %s\n%s" (Xia_xpath.Pattern.to_string p) (D.data_type_to_string dtype)
        (String.concat "\n" (List.map Xia_xml.Printer.to_string docs)))
    QCheck.Gen.(
      let* docs = list_size (int_range 1 6) Helpers.doc_gen in
      let* pattern = oracle_pattern_gen docs in
      let* dtype = oneofl [ D.Dstring; D.Ddouble ] in
      return (pattern, dtype, docs))

let oracle_properties =
  [
    QCheck.Test.make ~count:300 ~name:"build equals the oracle build" oracle_build_arbitrary
      (fun (pattern, dtype, docs) ->
        let s = DS.create "T" in
        List.iter (fun d -> ignore (DS.insert s d)) docs;
        let d = D.make ~table:"T" ~pattern ~dtype () in
        PI.all (PI.build s d) = Walk_oracle.build s d);
    QCheck.Test.make ~count:200 ~name:"refresh equals the oracle build"
      oracle_build_arbitrary (fun (pattern, dtype, docs) ->
        (* Build over the first document, then insert the rest and delete
           the first. *)
        let s = DS.create "T" in
        let first = DS.insert s (List.hd docs) in
        let d = D.make ~table:"T" ~pattern ~dtype () in
        let pi = PI.build s d in
        List.iter (fun doc -> ignore (DS.insert s doc)) (List.tl docs);
        ignore (DS.delete s first);
        PI.all (PI.refresh s pi) = Walk_oracle.build s d);
  ]

let incremental_properties =
  [
    QCheck.Test.make ~count:60 ~name:"random DML: incremental equals rebuild"
      QCheck.(pair (int_range 0 100_000) (int_range 1 25))
      (fun (seed, batches) ->
        (* Each refresh follows a batch of 1-8 operations, so one delta can
           hold an insert and a delete of one document, two replaces of one
           document, or the delete that empties the table. *)
        let rng = Random.State.make [| seed |] in
        let s = store_with [ "<a><b>x</b></a>"; "<a><b>y</b><c>z</c></a>" ] in
        let d = def "/a/*" in
        let pi = ref (PI.build s d) in
        let ok = ref true in
        let last = ref 0 in
        let pick () =
          match DS.doc_ids s with
          | [] -> None
          | ids -> Some (List.nth ids (Random.State.int rng (List.length ids)))
        in
        let replace id =
          last := id;
          ignore
            (Helpers.replace s id
               (Helpers.xml (Printf.sprintf "<a><c>r%d</c></a>" (Random.State.int rng 50))))
        in
        for _ = 1 to batches do
          for _ = 1 to 1 + Random.State.int rng 8 do
            match Random.State.int rng 6 with
            | 0 ->
                last :=
                  DS.insert s
                    (Helpers.xml (Printf.sprintf "<a><b>v%d</b></a>" (Random.State.int rng 50)))
            | 1 -> Option.iter (fun id -> ignore (DS.delete s id)) (pick ())
            | 2 -> Option.iter replace (pick ())
            (* the document the last insert or replace wrote *)
            | 3 -> ignore (DS.delete s !last)
            | 4 -> replace !last
            | _ -> List.iter (fun id -> ignore (DS.delete s id)) (DS.doc_ids s)
          done;
          pi := PI.refresh s !pi;
          if not (same_entries !pi (PI.build s d)) then ok := false
        done;
        !ok);
  ]

let catalog_tests =
  [
    tc "add and find tables" (fun () ->
        let c = Cat.create () in
        Cat.add_table c (store_with [ "<a/>" ]);
        Alcotest.(check (list string)) "names" [ "T" ] (Cat.table_names c));
    tc "duplicate table rejected" (fun () ->
        let c = Cat.create () in
        Cat.add_table c (DS.create "T");
        Alcotest.(check bool) "raises" true
          (try
             Cat.add_table c (DS.create "T");
             false
           with Invalid_argument _ -> true));
    tc "stats cached and refreshed on change" (fun () ->
        let c = Cat.create () in
        Cat.add_table c (store_with [ "<a><b>1</b></a>" ]);
        let s1 = Cat.stats c "T" in
        let s2 = Cat.stats c "T" in
        Alcotest.(check bool) "cached" true (s1 == s2);
        ignore (DS.insert (Cat.store c "T") (Helpers.xml "<a><b>2</b></a>"));
        let s3 = Cat.stats c "T" in
        Alcotest.(check bool) "refreshed" true (s3 != s2);
        Alcotest.(check int) "docs" 2 s3.PS.doc_count);
    tc "create/drop index" (fun () ->
        let c = Cat.create () in
        Cat.add_table c (store_with [ "<a><b>1</b></a>" ]);
        let d = def "/a/b" in
        ignore (Cat.create_index c d);
        Alcotest.(check int) "one" 1 (List.length (Cat.real_indexes c "T"));
        Cat.drop_all_indexes c;
        Alcotest.(check int) "zero" 0 (List.length (Cat.real_indexes c "T")));
    tc "duplicate logical index rejected" (fun () ->
        let c = Cat.create () in
        Cat.add_table c (store_with [ "<a><b>1</b></a>" ]);
        ignore (Cat.create_index c (def "/a/b"));
        Alcotest.(check bool) "raises" true
          (try
             ignore (Cat.create_index c (def "/a/b"));
             false
           with Invalid_argument _ -> true));
    tc "refresh_indexes rebuilds stale" (fun () ->
        let c = Cat.create () in
        Cat.add_table c (store_with [ "<a><b>1</b></a>" ]);
        ignore (Cat.create_index c (def "/a/b"));
        ignore (DS.insert (Cat.store c "T") (Helpers.xml "<a><b>2</b></a>"));
        Cat.refresh_indexes c;
        match Cat.real_indexes c "T" with
        | [ pi ] -> Alcotest.(check int) "entries" 2 (PI.entry_count pi)
        | _ -> Alcotest.fail "expected one index");
  ]

let maintenance_tests =
  [
    tc "queries cost nothing (no docs affected)" (fun () ->
        let st = PS.collect (store_with [ "<a><b>1</b></a>" ]) in
        let s = IS.derive st (def "/a/b") in
        Alcotest.(check (float 0.001)) "zero" 0.0
          (M.cost s ~docs_affected:0.0));
    tc "insert charges entries_per_doc" (fun () ->
        let st = PS.collect (store_with [ "<a><b>1</b><b>2</b></a>" ]) in
        let s = IS.derive st (def "/a/b") in
        let c1 = M.cost s ~docs_affected:1.0 in
        let c2 = M.cost s ~docs_affected:2.0 in
        Alcotest.(check bool) "positive" true (c1 > 0.0);
        Alcotest.(check (float 0.001)) "linear" (2.0 *. c1) c2);
    tc "irrelevant index pays nothing" (fun () ->
        let st = PS.collect (store_with [ "<a><b>1</b></a>" ]) in
        let s = IS.derive st (def "/zzz/q") in
        Alcotest.(check (float 0.001)) "zero" 0.0 (M.cost s ~docs_affected:1.0));
    tc "bigger index costs more to maintain" (fun () ->
        let st =
          PS.collect (store_with [ "<a><b>1</b><c>2</c><d>3</d></a>" ])
        in
        let small = IS.derive st (def "/a/b") in
        let big = IS.derive st (def "/a/*") in
        Alcotest.(check bool) "more" true
          (M.cost big ~docs_affected:1.0
          > M.cost small ~docs_affected:1.0));
  ]

let suites =
  [
    ("index.def", def_tests);
    ("index.stats", stats_tests);
    ("index.physical", physical_tests);
    ("index.incremental", incremental_tests);
    Helpers.qsuite "index.incremental_properties" incremental_properties;
    Helpers.qsuite "index.oracle_properties" oracle_properties;
    ("index.catalog", catalog_tests);
    ("index.maintenance", maintenance_tests);
  ]
