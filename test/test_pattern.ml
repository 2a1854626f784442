(* Tests for linear index patterns and NFA containment. *)

module Pat = Xia_xpath.Pattern

let tc name f = Alcotest.test_case name `Quick f
let pat = Helpers.pattern

let covers g s = Pat.covers ~general:(pat g) ~specific:(pat s)
let accepts_pattern p path = Xia_xpath.Nfa.accepts (Pat.nfa_of p) path
let accepts p path = accepts_pattern (pat p) path

let accepts_tests =
  [
    tc "exact path" (fun () ->
        Alcotest.(check bool) "yes" true (accepts "/a/b" [ "a"; "b" ]);
        Alcotest.(check bool) "no shorter" false (accepts "/a/b" [ "a" ]);
        Alcotest.(check bool) "no longer" false (accepts "/a/b" [ "a"; "b"; "c" ]));
    tc "wildcard matches any element label" (fun () ->
        Alcotest.(check bool) "yes" true (accepts "/a/*" [ "a"; "anything" ]);
        Alcotest.(check bool) "not attr" false (accepts "/a/*" [ "a"; "@id" ]));
    tc "descendant gap" (fun () ->
        Alcotest.(check bool) "depth1" true (accepts "/a//b" [ "a"; "b" ]);
        Alcotest.(check bool) "depth3" true (accepts "/a//b" [ "a"; "x"; "y"; "b" ]);
        Alcotest.(check bool) "missing" false (accepts "/a//b" [ "a"; "x" ]));
    tc "leading descendant" (fun () ->
        Alcotest.(check bool) "root" true (accepts "//b" [ "b" ]);
        Alcotest.(check bool) "deep" true (accepts "//b" [ "x"; "y"; "b" ]));
    tc "attribute label" (fun () ->
        Alcotest.(check bool) "yes" true (accepts "/a/@id" [ "a"; "@id" ]);
        Alcotest.(check bool) "wrong attr" false (accepts "/a/@id" [ "a"; "@x" ]);
        Alcotest.(check bool) "attr wildcard" true (accepts "/a/@*" [ "a"; "@x" ]));
    tc "universal matches all element paths" (fun () ->
        Alcotest.(check bool) "yes" true (accepts_pattern Pat.universal [ "x"; "y"; "z" ]);
        Alcotest.(check bool) "not attrs" false (accepts_pattern Pat.universal [ "x"; "@a" ]));
    tc "universal_attr matches attribute paths" (fun () ->
        Alcotest.(check bool) "yes" true (accepts_pattern Pat.universal_attr [ "x"; "@a" ]));
    tc "recursive labels" (fun () ->
        Alcotest.(check bool) "aa" true (accepts "/a//a" [ "a"; "a" ]);
        Alcotest.(check bool) "axa" true (accepts "/a//a" [ "a"; "x"; "a" ]));
  ]

let covers_tests =
  [
    tc "reflexive" (fun () ->
        Alcotest.(check bool) "yes" true (covers "/a/b" "/a/b"));
    tc "wildcard covers name" (fun () ->
        Alcotest.(check bool) "yes" true (covers "/a/*" "/a/b");
        Alcotest.(check bool) "no" false (covers "/a/b" "/a/*"));
    tc "descendant covers child" (fun () ->
        Alcotest.(check bool) "yes" true (covers "/a//b" "/a/b");
        Alcotest.(check bool) "deeper" true (covers "/a//b" "/a/x/b");
        Alcotest.(check bool) "no" false (covers "/a/b" "/a//b"));
    tc "paper example: Security//* covers both C1-shaped patterns" (fun () ->
        Alcotest.(check bool) "symbol" true (covers "/Security//*" "/Security/Symbol");
        Alcotest.(check bool) "sector" true
          (covers "/Security//*" "/Security/SecInfo/*/Sector");
        Alcotest.(check bool) "not reverse" false
          (covers "/Security/Symbol" "/Security//*"));
    tc "universal covers everything element" (fun () ->
        Alcotest.(check bool) "b" true
          (Pat.covers ~general:Pat.universal ~specific:(pat "/a/b/c"));
        Alcotest.(check bool) "wild" true
          (Pat.covers ~general:Pat.universal ~specific:(pat "/a//*"));
        Alcotest.(check bool) "not attr" false
          (Pat.covers ~general:Pat.universal ~specific:(pat "/a/@id")));
    tc "attr patterns covered by //@*" (fun () ->
        Alcotest.(check bool) "yes" true
          (Pat.covers ~general:Pat.universal_attr ~specific:(pat "/a/b/@id")));
    tc "incomparable patterns" (fun () ->
        Alcotest.(check bool) "no1" false (covers "/a/b" "/a/c");
        Alcotest.(check bool) "no2" false (covers "/a/c" "/a/b"));
    tc "tricky: //a//b vs /a/x/b" (fun () ->
        Alcotest.(check bool) "yes" true (covers "//a//b" "/a/x/b"));
    tc "tricky: /a/*/b does not cover /a/b" (fun () ->
        Alcotest.(check bool) "no" false (covers "/a/*/b" "/a/b"));
    tc "tricky: /a//b covers /a/*/b" (fun () ->
        Alcotest.(check bool) "yes" true (covers "/a//b" "/a/*/b"));
    tc "tricky: //* vs fresh labels" (fun () ->
        (* Containment must hold even for labels unseen in either pattern. *)
        Alcotest.(check bool) "yes" true (covers "//*" "/zzz/qqq"));
  ]

let rewrite_tests =
  [
    tc "single middle wildcard" (fun () ->
        Alcotest.(check string) "rw" "/a//b"
          (Pat.to_string (Pat.rewrite_middle_wildcards (pat "/a/*/b"))));
    tc "two middle wildcards" (fun () ->
        Alcotest.(check string) "rw" "/a//b"
          (Pat.to_string (Pat.rewrite_middle_wildcards (pat "/a/*/*/b"))));
    tc "descendant wildcard middle" (fun () ->
        Alcotest.(check string) "rw" "/a//b"
          (Pat.to_string (Pat.rewrite_middle_wildcards (pat "/a//*/b"))));
    tc "last wildcard kept" (fun () ->
        Alcotest.(check string) "rw" "/a//*"
          (Pat.to_string (Pat.rewrite_middle_wildcards (pat "/a//*"))));
    tc "leading wildcard folds" (fun () ->
        Alcotest.(check string) "rw" "//b"
          (Pat.to_string (Pat.rewrite_middle_wildcards (pat "/*/b"))));
    tc "no change without wildcards" (fun () ->
        Alcotest.(check string) "rw" "/a/b/c"
          (Pat.to_string (Pat.rewrite_middle_wildcards (pat "/a/b/c"))));
    tc "rewrite only generalizes" (fun () ->
        let p = pat "/a/*/b/*/c" in
        let r = Pat.rewrite_middle_wildcards p in
        Alcotest.(check bool) "covers" true (Pat.covers ~general:r ~specific:p));
  ]

let misc_tests =
  [
    tc "of_string rejects predicates" (fun () ->
        Alcotest.(check bool) "err" true
          (Result.is_error (Pat.of_string_result "/a[b>1]/c")));
    tc "specificity ordering" (fun () ->
        Alcotest.(check bool) "named > wild" true
          (Pat.specificity (pat "/a/b") > Pat.specificity (pat "/a/*"));
        Alcotest.(check bool) "child > desc" true
          (Pat.specificity (pat "/a/b") > Pat.specificity (pat "/a//b")));
    tc "key is canonical" (fun () ->
        Alcotest.(check string) "key" "/a//*" (Pat.key (pat "/a//*")));
    tc "compare consistent with equal" (fun () ->
        Alcotest.(check int) "eq" 0 (Pat.compare (pat "/a/b") (pat "/a/b")));
  ]

let properties =
  [
    QCheck.Test.make ~count:300 ~name:"covers is reflexive" Helpers.pattern_arbitrary
      (fun p -> Pat.covers ~general:p ~specific:p);
    QCheck.Test.make ~count:300 ~name:"universal covers every element pattern"
      Helpers.pattern_arbitrary (fun p ->
        (match List.rev p with { Pat.test = Xia_xpath.Ast.Attr _; _ } :: _ -> true | _ -> false)
        || Pat.covers ~general:Pat.universal ~specific:p);
    QCheck.Test.make ~count:500
      ~name:"covers implies accepts-subset on sampled paths"
      (QCheck.triple Helpers.pattern_arbitrary Helpers.pattern_arbitrary
         Helpers.label_path_arbitrary)
      (fun (g, s, path) ->
        (* Whenever g covers s, every sampled path s accepts is accepted by
           g as well — the semantic meaning of containment. *)
        (not (Pat.covers ~general:g ~specific:s))
        || (not (accepts_pattern s path))
        || accepts_pattern g path);
    QCheck.Test.make ~count:300 ~name:"rewrite rule 0 generalizes"
      Helpers.pattern_arbitrary (fun p ->
        let r = Pat.rewrite_middle_wildcards p in
        Pat.covers ~general:r ~specific:p);
    QCheck.Test.make ~count:200 ~name:"covers transitive (sampled)"
      (QCheck.triple Helpers.pattern_arbitrary Helpers.pattern_arbitrary
         Helpers.pattern_arbitrary) (fun (a, b, c) ->
        (* a ⊇ b and b ⊇ c implies a ⊇ c *)
        (not (Pat.covers ~general:a ~specific:b && Pat.covers ~general:b ~specific:c))
        || Pat.covers ~general:a ~specific:c);
    QCheck.Test.make ~count:300 ~name:"accepts agrees with eval reachability"
      (QCheck.pair Helpers.pattern_arbitrary Helpers.doc_arbitrary) (fun (p, doc) ->
        (* Every node whose label path the pattern accepts is found by
           evaluating the pattern as a path, and vice versa. *)
        let by_accepts = ref 0 in
        Walk_oracle.iter_nodes
          (fun _ _ path _ -> if accepts_pattern p path then incr by_accepts)
          doc;
        let by_eval =
          List.length (Helpers.eval_tree doc (Pat.to_path p))
        in
        !by_accepts = by_eval);
  ]

let suites =
  [
    ("pattern.accepts", accepts_tests);
    ("pattern.covers", covers_tests);
    ("pattern.rewrite", rewrite_tests);
    ("pattern.misc", misc_tests);
    Helpers.qsuite "pattern.properties" properties;
  ]
