(* Differential suites for the id-addressed lookups of the what-if
   optimizer: the dense coverage table ([Pattern.covers_id]) and the NFAs
   addressed by pattern id against automata compiled afresh for every
   question, the same questions asked in two shuffled orders, and the ids
   every index definition carries. *)

module Pattern = Xia_xpath.Pattern
module Nfa = Xia_xpath.Nfa
module Index_def = Xia_index.Index_def

let tc name f = Alcotest.test_case name `Quick f

(* ---------------- the uncached oracle ---------------- *)

(* A fresh automaton per call: no table, no interning. *)
let fresh_nfa (p : Pattern.t) =
  Nfa.of_steps (List.map (fun (s : Pattern.step) -> (s.axis, s.test)) p)

let oracle_covers ~general ~specific = Nfa.contained (fresh_nfa specific) (fresh_nfa general)

let covers_by_id ~general ~specific =
  Pattern.covers_id ~general:(Pattern.id general) ~specific:(Pattern.id specific)

(* ---------------- coverage table = oracle ---------------- *)

let coverage_tests =
  [
    QCheck.Test.make ~count:500 ~name:"covers_id = Nfa.contained, both argument orders"
      (QCheck.pair Helpers.pattern_arbitrary Helpers.pattern_arbitrary)
      (fun (a, b) ->
        (* Asked twice: the first answer may be computed, the second is
           read from the table. *)
        let ask () =
          ( covers_by_id ~general:a ~specific:b,
            covers_by_id ~general:b ~specific:a )
        in
        let first = ask () in
        let second = ask () in
        let expected =
          (oracle_covers ~general:a ~specific:b, oracle_covers ~general:b ~specific:a)
        in
        first = expected && second = expected);
    QCheck.Test.make ~count:300 ~name:"accepts by id = a fresh NFA"
      (QCheck.pair Helpers.pattern_arbitrary Helpers.label_path_arbitrary)
      (fun (p, path) ->
        Bool.equal (Nfa.accepts (Pattern.nfa_of p) path) (Nfa.accepts (fresh_nfa p) path));
  ]

(* ---------------- the same questions in shuffled orders ---------------- *)

(* Patterns over labels no other suite uses, so every cell starts unknown
   and the first round fills it in shuffled order. *)
let private_patterns n =
  let rand = Random.State.make [| 23 |] in
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 4)
        (map2
           (fun axis test -> { Pattern.axis; test })
           (oneofl [ Xia_xpath.Ast.Child; Xia_xpath.Ast.Descendant ])
           (frequency
              [
                (4, map (fun t -> Xia_xpath.Ast.Elem (Xia_xpath.Ast.Name t))
                      (oneofl [ "lk_a"; "lk_b"; "lk_c" ]));
                (1, return (Xia_xpath.Ast.Elem Xia_xpath.Ast.Wildcard));
                (1, return (Xia_xpath.Ast.Attr (Xia_xpath.Ast.Name "lk_id")));
              ])))
  in
  List.sort_uniq Pattern.compare (List.init n (fun _ -> gen rand))

let shuffle rand a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rand (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let order_tests =
  [
    tc "shuffled order: identical answers, equal to the oracle" (fun () ->
        let patterns = Array.of_list (private_patterns 60) in
        let pairs =
          Array.concat
            (Array.to_list
               (Array.map (fun g -> Array.map (fun s -> (g, s)) patterns) patterns))
        in
        let expected =
          Array.map (fun (g, s) -> oracle_covers ~general:g ~specific:s) pairs
        in
        let rand = Random.State.make [| 7 |] in
        let ask order =
          let answers =
            Array.map
              (fun i ->
                let g, s = pairs.(i) in
                (i, covers_by_id ~general:g ~specific:s))
              order
          in
          let by_pair = Array.make (Array.length pairs) false in
          Array.iter (fun (i, v) -> by_pair.(i) <- v) answers;
          by_pair
        in
        let indices = Array.init (Array.length pairs) Fun.id in
        (* The first round fills the table; the second reads it back in
           another order. *)
        let first = ask (shuffle rand indices) in
        let second = ask (shuffle rand indices) in
        Alcotest.(check bool) "some pairs cover, some do not" true
          (Array.exists Fun.id expected && Array.exists not expected);
        Alcotest.(check (array bool)) "first round = oracle" expected first;
        Alcotest.(check (array bool)) "second round = first" first second);
  ]

(* ---------------- hits allocate nothing ---------------- *)

(* Minor words allocated by [n] runs of [f]: a constant few for reading the
   counter, plus whatever each run allocates. *)
let words_of n f =
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f ()))
  done;
  Gc.minor_words () -. w0

let allocation_tests =
  [
    tc "a hit in each table allocates nothing" (fun () ->
        let general = Helpers.pattern "/lk_x//*" and specific = Helpers.pattern "/lk_x/lk_y" in
        let g = Pattern.id general and s = Pattern.id specific in
        let interner : string Xia_xpath.Interner.t = Xia_xpath.Interner.create () in
        let cache : (int, int) Xia_xpath.Interner.Cache.t = Xia_xpath.Interner.Cache.create () in
        let square a b = (a * a) + b in
        let def = Index_def.make ~table:"LK" ~pattern:general ~dtype:Index_def.Dstring () in
        let key = Index_def.key_id ~table:"LK" ~dtype:Index_def.Dstring ~pid:s in
        let hits =
          [
            ("covers_id", fun () -> Pattern.covers_id ~general:g ~specific:s);
            ("nfa_of_id", fun () -> Pattern.nfa_of_id s == Pattern.nfa_of_id g);
            ("Pattern.id", fun () -> Pattern.id specific = s);
            ("Interner.intern", fun () -> Xia_xpath.Interner.intern interner "lk" = 0);
            ( "Cache.find_or_compute",
              fun () -> Xia_xpath.Interner.Cache.find_or_compute cache 3 square 3 0 = 9 );
            ( "Index_def.key_id",
              fun () -> Index_def.key_id ~table:"LK" ~dtype:Index_def.Dstring ~pid:s = key );
            ("Index_def.covers_id", fun () -> Index_def.covers_id ~general:def key);
          ]
        in
        List.iter
          (fun (name, hit) ->
            ignore (hit ());
            (* filled: every later call is a hit *)
            Alcotest.(check bool)
              (name ^ ": fewer words than hits") true
              (words_of 10_000 hit < 100.))
          hits);
  ]

(* ---------------- ids carried by index definitions ---------------- *)

let def_arbitrary =
  QCheck.make
    ~print:(fun (table, p, dtype) ->
      Printf.sprintf "%s %s %s" table (Pattern.to_string p)
        (Index_def.data_type_to_string dtype))
    QCheck.Gen.(
      triple (oneofl [ "T"; "U" ]) Helpers.pattern_gen
        (oneofl [ Index_def.Dstring; Index_def.Ddouble ]))

let make (table, pattern, dtype) = Index_def.make ~table ~pattern ~dtype ()

let def_tests =
  [
    QCheck.Test.make ~count:500 ~name:"logical_id a = logical_id b iff same a b"
      (QCheck.pair def_arbitrary def_arbitrary)
      (fun (x, y) ->
        let a = make x and b = make y in
        let structural =
          String.equal a.table b.table
          && Index_def.equal_data_type a.dtype b.dtype
          && Pattern.equal a.pattern b.pattern
        in
        Bool.equal (a.lid = b.lid) (Index_def.same a b)
        && Bool.equal (Index_def.same a b) structural);
    QCheck.Test.make ~count:500 ~name:"key_id = logical_id, covers_id = covers"
      (QCheck.pair def_arbitrary def_arbitrary)
      (fun (((table, pattern, dtype) as x), y) ->
        let a = make x and b = make y in
        Index_def.key_id ~table ~dtype ~pid:(Pattern.id pattern) = a.lid
        && Bool.equal
             (Index_def.covers_id ~general:b a.lid)
             (Index_def.covers ~general:b ~specific:a));
    QCheck.Test.make ~count:300 ~name:"make carries the pattern's id"
      def_arbitrary
      (fun ((_, pattern, _) as x) -> (make x).pid = Pattern.id pattern);
  ]

let suites =
  [
    Helpers.qsuite "lookup.coverage" coverage_tests;
    ("lookup.order", order_tests);
    ("lookup.allocation", allocation_tests);
    Helpers.qsuite "lookup.defs" def_tests;
  ]
