(* Tests for the generalization algorithm — including the paper's two worked
   examples, which pin down the exact semantics of Algorithm 1 / Table II. *)

module G = Xia_advisor.Generalize
module C = Xia_advisor.Candidate
module Pat = Xia_xpath.Pattern
module D = Xia_index.Index_def

let tc name f = Alcotest.test_case name `Quick f

let pat = Helpers.pattern

let pair_strs a b =
  List.sort String.compare (List.map Pat.to_string (G.pair (pat a) (pat b)))

let paper_examples =
  [
    tc "C1 + C2 -> /Security//*" (fun () ->
        Alcotest.(check (list string)) "result" [ "/Security//*" ]
          (pair_strs "/Security/Symbol" "/Security/SecInfo/*/Sector"));
    tc "/a/b/d + /a/d/b/d -> {/a//b/d, /a//d}" (fun () ->
        Alcotest.(check (list string)) "result" [ "/a//b/d"; "/a//d" ]
          (pair_strs "/a/b/d" "/a/d/b/d"));
  ]

let pair_tests =
  [
    tc "identical patterns generalize to themselves" (fun () ->
        Alcotest.(check (list string)) "same" [ "/a/b" ] (pair_strs "/a/b" "/a/b"));
    tc "same length different last step" (fun () ->
        Alcotest.(check (list string)) "wild last" [ "/a/*" ] (pair_strs "/a/b" "/a/c"));
    tc "axis generalization" (fun () ->
        Alcotest.(check (list string)) "descendant wins" [ "/a//b" ]
          (pair_strs "/a/b" "/a//b"));
    tc "different roots fold to descendant (rule 0)" (fun () ->
        Alcotest.(check (list string)) "wild root" [ "//b" ] (pair_strs "/a/b" "/x/b"));
    tc "different lengths get filler" (fun () ->
        Alcotest.(check (list string)) "deep" [ "/a//c" ] (pair_strs "/a/c" "/a/b/c"));
    tc "attribute last steps generalize together" (fun () ->
        Alcotest.(check (list string)) "attr wild" [ "/a/@*" ]
          (pair_strs "/a/@id" "/a/@name"));
    tc "element and attribute last steps do not generalize" (fun () ->
        Alcotest.(check (list string)) "none" [] (pair_strs "/a/b" "/a/@id"));
    tc "wildcards in inputs" (fun () ->
        Alcotest.(check (list string)) "kept" [ "/a/*" ] (pair_strs "/a/*" "/a/b"));
    tc "result covers both inputs (spot)" (fun () ->
        List.iter
          (fun g ->
            Alcotest.(check bool) "covers a" true (Pat.covers ~general:g ~specific:(pat "/r/x/y"));
            Alcotest.(check bool) "covers b" true (Pat.covers ~general:g ~specific:(pat "/r/y")))
          (G.pair (pat "/r/x/y") (pat "/r/y")));
  ]

(* Targeted tests for each advanceStep rule of Table II. *)
let rule_tests =
  [
    tc "rule 1: both last steps generalize directly" (fun () ->
        Alcotest.(check (list string)) "r" [ "/x" ] (pair_strs "/x" "/x");
        Alcotest.(check (list string)) "r2" [ "/*" ] (pair_strs "/x" "/y"));
    tc "rule 2: shorter left expression gets a filler" (fun () ->
        (* left is at its last step, right must fast-forward *)
        Alcotest.(check (list string)) "r" [ "/a//c" ] (pair_strs "/a/c" "/a/b/b2/c"));
    tc "rule 3: shorter right expression gets a filler" (fun () ->
        Alcotest.(check (list string)) "r" [ "/a//c" ] (pair_strs "/a/b/b2/c" "/a/c"));
    tc "rule 4 alternative 1: parallel advance (then rule 0 folds)" (fun () ->
        Alcotest.(check (list string)) "r" [ "/a//c" ] (pair_strs "/a/b/c" "/a/x/c"));
    tc "rule 4 re-occurrence: skipped nodes become a gap" (fun () ->
        (* the paper's /a/b/d + /a/d/b/d example exercises alternatives 2/3 *)
        Alcotest.(check (list string)) "r" [ "/a//b/d"; "/a//d" ]
          (pair_strs "/a/b/d" "/a/d/b/d"));
    tc "rule 0: middle wildcards collapse, last wildcard kept" (fun () ->
        (* raw generalization is /a/x/x (x = star); the middle one folds into
           a descendant axis, the last is preserved *)
        Alcotest.(check (list string)) "r" [ "/a//*" ] (pair_strs "/a/b/x" "/a/c/y"));
    tc "axes generalize per-step" (fun () ->
        Alcotest.(check (list string)) "r" [ "//a/b" ] (pair_strs "/a/b" "//a/b"));
  ]

let mkdef ?(table = "T") ?(dtype = D.Dstring) p =
  D.make ~table ~pattern:(pat p) ~dtype ()

let close_with patterns =
  let set = C.create_set () in
  List.iteri
    (fun i p ->
      let c = C.add set ~origin:C.Basic (mkdef p) in
      C.mark_affected c i)
    patterns;
  G.close set;
  set

let close_tests =
  [
    tc "fixpoint adds the paper's general candidate" (fun () ->
        let set = close_with [ "/Security/Symbol"; "/Security/SecInfo/*/Sector" ] in
        let generals = List.map (fun c -> Pat.to_string c.C.def.D.pattern) (C.generals set) in
        Alcotest.(check bool) "security//*" true (List.mem "/Security//*" generals));
    tc "DAG edges wired parent/child" (fun () ->
        let set = close_with [ "/Security/Symbol"; "/Security/SecInfo/*/Sector" ] in
        match C.generals set with
        | [ g ] ->
            let children = C.children_of set g in
            Alcotest.(check int) "two children" 2 (List.length children);
            List.iter
              (fun ch ->
                Alcotest.(check bool) "parent link" true
                  (List.exists (fun p -> p.C.id = g.C.id) (C.parents_of set ch)))
              children
        | l -> Alcotest.failf "expected one general, got %d" (List.length l));
    tc "affected sets propagate to generals" (fun () ->
        let set = close_with [ "/Security/Symbol"; "/Security/SecInfo/*/Sector" ] in
        match C.generals set with
        | [ g ] ->
            Alcotest.(check (list int)) "both stmts" [ 0; 1 ]
              (C.Int_set.elements g.C.affected)
        | _ -> Alcotest.fail "expected one general");
    tc "different types never generalize together" (fun () ->
        let set = C.create_set () in
        ignore (C.add set ~origin:C.Basic (mkdef ~dtype:D.Dstring "/a/b"));
        ignore (C.add set ~origin:C.Basic (mkdef ~dtype:D.Ddouble "/a/c"));
        G.close set;
        Alcotest.(check int) "no generals" 0 (List.length (C.generals set)));
    tc "different tables never generalize together" (fun () ->
        let set = C.create_set () in
        ignore (C.add set ~origin:C.Basic (mkdef ~table:"T" "/a/b"));
        ignore (C.add set ~origin:C.Basic (mkdef ~table:"U" "/a/c"));
        G.close set;
        Alcotest.(check int) "no generals" 0 (List.length (C.generals set)));
    tc "input that is already the generalization gets the edge" (fun () ->
        let set = close_with [ "/a/b"; "/a/*" ] in
        Alcotest.(check int) "no new nodes" 2 (C.cardinality set);
        let star = Option.get (C.find_def set (mkdef "/a/*")) in
        Alcotest.(check bool) "has child" true (not (C.Int_set.is_empty star.C.children)));
    tc "closure reaches fixpoint across generations" (fun () ->
        (* b+c gives /a/*; with /x/y it further generalizes. *)
        let set = close_with [ "/a/b"; "/a/c"; "/x/y" ] in
        let generals = List.map (fun c -> Pat.to_string c.C.def.D.pattern) (C.generals set) in
        Alcotest.(check bool) "a/*" true (List.mem "/a/*" generals);
        Alcotest.(check bool) "//*" true (List.mem "//*" generals));
    tc "roots are un-generalized tops" (fun () ->
        let set = close_with [ "/a/b"; "/a/c" ] in
        let roots = List.map (fun c -> Pat.to_string c.C.def.D.pattern) (C.roots set) in
        Alcotest.(check (list string)) "one root" [ "/a/*" ] roots);
    tc "basics keep Basic origin after re-derivation" (fun () ->
        let set = close_with [ "/a/*"; "/a/b" ] in
        let star = Option.get (C.find_def set (mkdef "/a/*")) in
        Alcotest.(check bool) "still basic" true (star.C.origin = C.Basic));
  ]

let properties =
  [
    QCheck.Test.make ~count:300 ~name:"pair results cover both inputs"
      (QCheck.pair Helpers.pattern_arbitrary Helpers.pattern_arbitrary)
      (fun (a, b) ->
        List.for_all
          (fun g ->
            Pat.covers ~general:g ~specific:a && Pat.covers ~general:g ~specific:b)
          (G.pair a b));
    QCheck.Test.make ~count:300 ~name:"pair is symmetric up to set equality"
      (QCheck.pair Helpers.pattern_arbitrary Helpers.pattern_arbitrary)
      (fun (a, b) ->
        let keys l = List.sort_uniq String.compare (List.map Pat.key l) in
        keys (G.pair a b) = keys (G.pair b a));
    QCheck.Test.make ~count:300 ~name:"pair of equal pattern is itself"
      Helpers.pattern_arbitrary (fun p ->
        match G.pair p p with
        | [ g ] -> Pat.equal g (Pat.rewrite_middle_wildcards p)
        | _ -> false);
    QCheck.Test.make ~count:300 ~name:"pair returns each pattern once"
      (QCheck.pair Helpers.pattern_arbitrary Helpers.pattern_arbitrary)
      (fun (a, b) ->
        let keys = List.map Pat.key (G.pair a b) in
        List.length keys = List.length (List.sort_uniq String.compare keys));
    QCheck.Test.make ~count:100 ~name:"generalization terminates and is bounded"
      (QCheck.list_of_size (QCheck.Gen.int_range 1 6) Helpers.pattern_arbitrary)
      (fun pats ->
        let set = C.create_set () in
        List.iteri
          (fun i p ->
            (* Skip attribute-in-middle patterns the generator cannot rule out. *)
            let c = C.add set ~origin:C.Basic (D.make ~table:"T" ~pattern:p ~dtype:D.Dstring ()) in
            C.mark_affected c i)
          pats;
        G.close set;
        C.cardinality set <= G.max_candidates);
  ]

(* ---------------- the fixpoint against the queue oracle ---------------- *)

module Xp = Xia_xpath.Ast

(* Basic candidates over two tables and two types: patterns of one to four
   element steps over the labels a, b, c and the wildcard, with child or
   descendant axes, sometimes ending in an [@id] or [@*] step, each with a
   statement index from a small range so affected sets overlap. *)
let spec_arbitrary =
  let open QCheck.Gen in
  let axis = oneofl [ Xp.Child; Xp.Descendant ] in
  let name =
    frequency [ (4, map (fun l -> Xp.Name l) (oneofl [ "a"; "b"; "c" ])); (1, return Xp.Wildcard) ]
  in
  let step = map2 (fun axis n -> { Pat.axis; test = Xp.Elem n }) axis name in
  let attr =
    frequency
      [
        (3, return []);
        (1, map2 (fun axis n -> [ { Pat.axis; test = Xp.Attr n } ]) axis
              (oneofl [ Xp.Name "id"; Xp.Wildcard ]));
      ]
  in
  let pattern = map2 ( @ ) (list_size (int_range 1 4) step) attr in
  let spec =
    quad (oneofl [ "T"; "U" ]) (oneofl [ D.Dstring; D.Ddouble ]) pattern (int_range 0 4)
  in
  QCheck.make
    ~print:(fun specs ->
      String.concat "; "
        (List.map
           (fun (table, dtype, p, stmt) ->
             Printf.sprintf "%s %s %s S%d" table (D.data_type_to_string dtype)
               (Pat.to_string p) stmt)
           specs))
    (list_size (int_range 1 7) spec)

(* A fresh set of the basic candidates, and the serial of the first
   definition made for it. *)
let basic_set specs =
  let set = C.create_set () in
  let serials =
    List.map
      (fun (table, dtype, pattern, stmt) ->
        let d = D.make ~table ~pattern ~dtype () in
        C.mark_affected (C.add set ~origin:C.Basic d) stmt;
        d.D.serial)
      specs
  in
  (set, List.hd serials)

let differential =
  [
    QCheck.Test.make ~count:300 ~name:"close = queue oracle: ids, keys, DAG, affected, names"
      spec_arbitrary
      (fun specs ->
        let oracle_set, oracle_first = basic_set specs in
        let names = Generalize_oracle.close oracle_set in
        let set, first = basic_set specs in
        G.close set;
        let same (o : C.t) (c : C.t) =
          o.id = c.id
          && String.equal (D.logical_key o.def) (D.logical_key c.def)
          && o.origin = c.origin
          && C.Int_set.equal o.parents c.parents
          && C.Int_set.equal o.children c.children
          && C.Int_set.equal o.affected c.affected
          && String.equal
               (Generalize_oracle.renumber ~by:(first - oracle_first) names.(o.id))
               (D.name c.def)
        in
        C.cardinality set = C.cardinality oracle_set
        && List.for_all2 same (C.to_list oracle_set) (C.to_list set));
  ]

let suites =
  [
    ("generalize.paper", paper_examples);
    ("generalize.pair", pair_tests);
    ("generalize.rules", rule_tests);
    ("generalize.close", close_tests);
    Helpers.qsuite "generalize.properties" properties;
    Helpers.qsuite "generalize.differential" differential;
  ]
