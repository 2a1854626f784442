(* The xia_lint static analyzer (lib/analysis): every check ID gets a
   positive hit, a negative non-hit and a suppression path; the
   whole-program checks (D003, the N/E-series, the R-series) additionally
   get two-unit temp-dir projects proving the cross-module cases the old
   per-file analysis could not see; the interprocedural effect pass gets a
   golden summary dump and cross-unit propagation cases; plus the
   self-check that the repository's own lib/ is lint-clean. *)

module Lint = Xia_analysis.Lint
module Checks = Xia_analysis.Checks
module Finding = Xia_analysis.Finding
module Suppress = Xia_analysis.Suppress
module Callgraph = Xia_analysis.Callgraph
module Sites = Xia_analysis.Sites

let tc name f = Alcotest.test_case name `Quick f

let findings ?(filename = "fixture.ml") src =
  match Lint.lint_source ~filename src with
  | Ok fs -> fs
  | Error (e : Lint.error) -> Alcotest.failf "parse error in %s: %s" e.path e.message

let ids ?filename src =
  List.map (fun (f : Finding.t) -> (f.line, f.id)) (findings ?filename src)

let check_ids name expected ?filename src =
  Alcotest.(check (list (pair int string))) name expected (ids ?filename src)

let contains haystack needle =
  let n = String.length needle and m = String.length haystack in
  let rec scan i = i + n <= m && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

let index_of haystack needle =
  let n = String.length needle and m = String.length haystack in
  let rec scan i =
    if i + n > m then -1 else if String.sub haystack i n = needle then i else scan (i + 1)
  in
  scan 0

(* A throwaway directory holding a multi-unit project, for the
   whole-program checks. *)
let with_temp_project files f =
  let dir = Filename.temp_dir "xia_lint_test" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      List.iter
        (fun (name, src) ->
          Out_channel.with_open_text (Filename.concat dir name) (fun oc ->
              output_string oc src))
        files;
      f dir)

(* ---------------------------------------------------------------- D001 -- *)

let d001_tests =
  [
    tc "toplevel ref / Hashtbl / Buffer / Array.make hit" (fun () ->
        check_ids "all flagged"
          [ (1, "D001"); (2, "D001"); (3, "D001"); (4, "D001") ]
          "let a = ref 0\n\
           let b = Hashtbl.create 16\n\
           let c = Buffer.create 64\n\
           let d = Array.make 4 0\n");
    tc "mutable-field record literal hit" (fun () ->
        check_ids "record flagged"
          [ (2, "D001") ]
          "type t = { mutable n : int; label : string }\n\
           let state = { n = 0; label = \"x\" }\n");
    tc "immutable record literal not hit" (fun () ->
        check_ids "clean" []
          "type t = { n : int; label : string }\n\
           let state = { n = 0; label = \"x\" }\n");
    tc "constructor payload and tuple are descended into" (fun () ->
        check_ids "nested flagged"
          [ (1, "D001"); (2, "D001") ]
          "let a = Some (ref 0)\nlet b, c = (ref 0, 1)\n");
    tc "function-local allocation not hit" (fun () ->
        check_ids "clean" []
          "let f () =\n\
          \  let tbl = Hashtbl.create 16 in\n\
          \  let r = ref 0 in\n\
          \  Hashtbl.length tbl + !r\n");
    tc "memoizing closure over a let-in ref is hit" (fun () ->
        check_ids "captured state flagged"
          [ (2, "D001") ]
          "let cached =\n\
          \  let memo = ref None in\n\
          \  fun () -> !memo\n");
    tc "let-in consumed at initialization not hit" (fun () ->
        check_ids "clean" []
          "let size =\n\
          \  let tbl = Hashtbl.create 16 in\n\
          \  Hashtbl.length tbl\n");
    tc "safe wrapper inside a closure-returning let-in not hit" (fun () ->
        check_ids "clean" []
          "let cached =\n\
          \  let memo = Lazy.from_fun (fun () -> Hashtbl.create 8) in\n\
          \  fun () -> Lazy.force memo\n");
    tc "Atomic/DLS/Mutex/Lazy wrappers not hit" (fun () ->
        check_ids "clean" []
          "let a = Atomic.make 0\n\
           let b = Domain.DLS.new_key (fun () -> Hashtbl.create 64)\n\
           let c = Mutex.create ()\n\
           let d = lazy (Hashtbl.create 8)\n\
           let e = Lazy.from_fun (fun () -> Buffer.create 8)\n");
    tc "nested module toplevel is still toplevel" (fun () ->
        check_ids "flagged inside module"
          [ (2, "D001") ]
          "module M = struct\n  let cache = Hashtbl.create 8\nend\n");
    tc "attribute suppression on binding" (fun () ->
        check_ids "suppressed" []
          "let a = ref 0 [@@lint.allow \"D001\"]\n");
    tc "attribute suppression on expression" (fun () ->
        check_ids "suppressed" [] "let a = (ref 0 [@lint.allow \"D001\"])\n");
    tc "an anonymous module's toplevel is still toplevel" (fun () ->
        check_ids "flagged" [ (1, "D001") ] "module _ = struct let r = ref 0 end\n");
    tc "attribute suppression on an enclosing module binding" (fun () ->
        check_ids "suppressed" []
          "module M = struct\n  module N = struct let r = ref 0 end\nend [@@lint.allow \"D001\"]\n");
    tc "an included structure's toplevel is still toplevel" (fun () ->
        check_ids "flagged" [ (1, "D001") ] "include struct let r = ref 0 end\n");
    tc "a tuple pattern binding flags each component" (fun () ->
        check_ids "two findings" [ (1, "D001"); (1, "D001") ] "let (a, b) = (ref 0, ref 1)\n");
  ]

(* ---------------------------------------------------------------- D002 -- *)

let d002_tests =
  [
    tc "Sys.time hit (also as a function value)" (fun () ->
        check_ids "both flagged"
          [ (1, "D002"); (2, "D002") ]
          "let f () = Sys.time ()\nlet g = [ Sys.time ]\n");
    tc "Unix.gettimeofday not hit (that is D004's territory)" (fun () ->
        check_ids "clean" [] "let f () = Unix.gettimeofday ()\n");
    tc "attribute suppression" (fun () ->
        check_ids "suppressed" []
          "let cpu_seconds () = (Sys.time () [@lint.allow \"D002\"])\n");
  ]

(* ---------------------------------------------------------------- D004 -- *)

let d004_tests =
  [
    tc "gettimeofday in lib/ hit (also as a function value)" (fun () ->
        check_ids "both flagged" ~filename:"lib/core/search.ml"
          [ (1, "D004"); (2, "D004") ]
          "let f () = Unix.gettimeofday ()\nlet g = [ Unix.gettimeofday ]\n");
    tc "lib/obs/ is the sanctioned home, not hit" (fun () ->
        check_ids "clean" [] ~filename:"lib/obs/obs.ml"
          "let now_s () = Unix.gettimeofday ()\n");
    tc "non-library code (bin/, bench/, test/) not hit" (fun () ->
        let src = "let t0 = fun () -> Unix.gettimeofday ()\n" in
        check_ids "bin clean" [] ~filename:"bin/xia_advise.ml" src;
        check_ids "bench clean" [] ~filename:"bench/main.ml" src;
        check_ids "test clean" [] ~filename:"test/helpers.ml" src);
    tc "relative lib path still applies" (fun () ->
        check_ids "flagged" ~filename:"../lib/optimizer/executor.ml"
          [ (1, "D004") ]
          "let stamp () = Unix.gettimeofday ()\n");
    tc "Obs.now_s not hit" (fun () ->
        check_ids "clean" [] ~filename:"lib/core/benefit.ml"
          "let stamp () = Xia_obs.Obs.now_s ()\n");
    tc "attribute suppression" (fun () ->
        check_ids "suppressed" [] ~filename:"lib/core/par.ml"
          "let raw () = (Unix.gettimeofday () [@lint.allow \"D004\"])\n");
  ]

(* ---------------------------------------------------------------- D003 -- *)

let d003_tests =
  [
    tc "catalog mutation reachable in what-if module" (fun () ->
        let src =
          "let install c defs = Catalog.create_index c defs\n\
           let benefit c defs = install c defs\n"
        in
        let fs = findings ~filename:"lib/core/benefit.ml" src in
        Alcotest.(check (list (pair int string)))
          "one D003 at the call site"
          [ (1, "D003") ]
          (List.map (fun (f : Finding.t) -> (f.line, f.id)) fs);
        let msg = (List.hd fs).Finding.message in
        let has_sub needle =
          let n = String.length needle and m = String.length msg in
          let rec scan i = i + n <= m && (String.sub msg i n = needle || scan (i + 1)) in
          scan 0
        in
        Alcotest.(check bool) "names the mutator" true (has_sub "Catalog.create_index");
        Alcotest.(check bool)
          "lists both entry points" true
          (has_sub "reachable from: benefit, install"));
    tc "same code outside what-if modules not hit" (fun () ->
        check_ids "clean" [] ~filename:"lib/core/search.ml"
          "let install c defs = Catalog.create_index c defs\n");
    tc "warm_stats and reads are allowed" (fun () ->
        check_ids "clean" [] ~filename:"benefit.ml"
          "let prepare c = Catalog.warm_stats c\n\
           let read c = Catalog.stats c \"T\"\n");
    tc "attribute suppression" (fun () ->
        check_ids "suppressed" [] ~filename:"benefit.ml"
          "let install c = (Catalog.drop_all_indexes c [@lint.allow \"D003\"])\n");
  ]

(* ---------------------------------------------------------------- H001 -- *)

let h001_tests =
  [
    tc "ml without mli is flagged; paired ml is not" (fun () ->
        let fs =
          Checks.missing_mli
            ~mls:[ "lib/a/one.ml"; "lib/a/two.ml" ]
            ~mlis:[ "lib/a/one.mli" ]
        in
        Alcotest.(check (list (pair string string)))
          "only two.ml"
          [ ("lib/a/two.ml", "H001") ]
          (List.map (fun (f : Finding.t) -> (f.file, f.id)) fs));
    tc "bin/ and bench/ executables are exempt" (fun () ->
        let fs =
          Checks.missing_mli
            ~mls:[ "bin/xia_advise.ml"; "bench/main.ml"; "lib/a/one.ml" ]
            ~mlis:[]
        in
        Alcotest.(check (list (pair string string)))
          "only the lib module"
          [ ("lib/a/one.ml", "H001") ]
          (List.map (fun (f : Finding.t) -> (f.file, f.id)) fs));
  ]

(* ---------------------------------------------------------------- H002 -- *)

(* A line carries a lint note when, with blanks removed, it contains
   "(*lint:": squeeze each line, then search it. *)
let lint_note_oracle source =
  List.concat
    (List.mapi
       (fun i line ->
         let squeezed =
           String.of_seq (Seq.filter (fun c -> c <> ' ' && c <> '\t') (String.to_seq line))
         in
         if contains squeezed "(*lint:" then [ i + 1 ] else [])
       (String.split_on_char '\n' source))

(* Random sources built from fragments of a note, so that whole notes,
   blank-split ones and near misses all occur. *)
let lint_note_source =
  QCheck.Gen.(
    map (String.concat "")
      (list_size (int_range 0 30)
         (oneofl
            [ "(*"; "( *"; "lint:"; "l int"; ":"; "(* lint:"; "(*lint"; " "; "\t"; "\n"; "x"; "*)"; "(" ])))

let h002_tests =
  [
    tc "failwith and assert false hit" (fun () ->
        check_ids "both flagged"
          [ (1, "H002"); (2, "H002") ]
          "let f () = failwith \"nope\"\nlet g () = assert false\n");
    tc "assert with a real condition not hit" (fun () ->
        check_ids "clean" [] "let f x = assert (x > 0)\n");
    tc "lint note on the same line suppresses" (fun () ->
        check_ids "suppressed" []
          "let f () = failwith \"nope\" (* lint: caller validated input *)\n");
    tc "lint note on the previous line suppresses" (fun () ->
        check_ids "suppressed" []
          "let f = function\n\
          \  | Some v -> v\n\
          \  (* lint: filtered to Some above *)\n\
          \  | None -> assert false\n");
    tc "attribute suppression" (fun () ->
        check_ids "suppressed" []
          "let f () = (assert false [@lint.allow \"H002\"])\n");
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"lint notes agree with the squeeze-and-search oracle"
         ~count:500
         (QCheck.make ~print:String.escaped lint_note_source)
         (fun src ->
           List.sort compare (Hashtbl.fold (fun l () acc -> l :: acc) (Suppress.lint_note_lines src) [])
           = lint_note_oracle src));
  ]

(* ------------------------------------------------------- output format -- *)

let format_tests =
  [
    tc "text format is file:line [ID] message" (fun () ->
        Alcotest.(check string) "text" "a.ml:3 [D001] boom"
          (Finding.to_string
             (Finding.make ~file:"a.ml" ~line:3 ~col:2 ~id:"D001" ~message:"boom")));
    tc "json format is regression-locked" (fun () ->
        let fs =
          [
            Finding.make ~file:"b.ml" ~line:1 ~col:0 ~id:"H001" ~message:"no mli";
            Finding.make ~file:"a.ml" ~line:3 ~col:2 ~id:"D001" ~message:"say \"hi\"";
          ]
        in
        Alcotest.(check string)
          "sorted array, one object per line"
          "[\n\
          \  {\"file\":\"a.ml\",\"line\":3,\"col\":2,\"id\":\"D001\",\"message\":\"say \\\"hi\\\"\"},\n\
          \  {\"file\":\"b.ml\",\"line\":1,\"col\":0,\"id\":\"H001\",\"message\":\"no mli\"}\n\
           ]\n"
          (Finding.list_to_json fs));
    tc "empty json report" (fun () ->
        Alcotest.(check string) "empty array" "[]\n" (Finding.list_to_json []));
    tc "syntax errors are reported, not raised" (fun () ->
        match Lint.lint_source ~filename:"bad.ml" "let let let" with
        | Ok _ -> Alcotest.fail "expected a parse error"
        | Error (e : Lint.error) -> Alcotest.(check string) "path" "bad.ml" e.path);
  ]

(* ------------------------------------------------------ repo self-check -- *)

let self_check_tests =
  [
    tc "repo lib/ is lint-clean" (fun () ->
        let report = Lint.lint_paths [ "../lib" ] in
        Alcotest.(check (list string))
          "no analysis errors" []
          (List.map (fun (e : Lint.error) -> e.path ^ ": " ^ e.message) report.errors);
        Alcotest.(check (list string))
          "no findings" []
          (List.map Finding.to_string report.findings));
    tc "repo lib/ is R-clean without any suppression" (fun () ->
        (* The race checks pass on lib/ on their own merits: no attribute
           hides an R-series finding. *)
        let report = Lint.lint_paths [ "../lib" ] in
        Alcotest.(check (list string))
          "no R-series findings" []
          (List.filter_map
             (fun (f : Finding.t) ->
               if String.length f.id > 0 && f.id.[0] = 'R' then
                 Some (Finding.to_string f)
               else None)
             report.findings));
    tc "repo lib/ is L/X-clean without any suppression" (fun () ->
        (* Same bar for the flow-sensitive checks: every lock region and
           save/restore in lib/ is exception-safe on its own merits — no
           attribute hides an L/X-series finding. *)
        let report = Lint.lint_paths [ "../lib" ] in
        Alcotest.(check (list string))
          "no L/X-series findings" []
          (List.filter_map
             (fun (f : Finding.t) ->
               if String.length f.id > 0 && (f.id.[0] = 'L' || f.id.[0] = 'X')
               then Some (Finding.to_string f)
               else None)
             report.findings));
    tc "injected D001 violation fails the full pipeline" (fun () ->
        (* The acceptance-criteria demonstration: the exact bug class PR 1
           shipped (a toplevel ref on a parallel path) yields a non-empty
           report, which is exactly what makes bin/xia_lint — and with it
           `dune build @lint` — exit non-zero. *)
        let dir = Filename.temp_dir "xia_lint_test" "" in
        let path = Filename.concat dir "injected.ml" in
        Fun.protect
          ~finally:(fun () ->
            if Sys.file_exists path then Sys.remove path;
            Sys.rmdir dir)
          (fun () ->
            Out_channel.with_open_text path (fun oc ->
                output_string oc "let counter = ref 0\n");
            let report = Lint.lint_paths [ dir ] in
            Alcotest.(check (list string))
              "D001 for the global, H001 for the missing mli"
              [ "D001"; "H001" ]
              (List.sort String.compare
                 (List.map (fun (f : Finding.t) -> f.id) report.findings))));
  ]

(* ----------------------------------------- cross-unit call graph cases -- *)

(* A lock-disciplined helper between a what-if caller and a mutator that
   also touches a raw global: mutations propagate through lock discipline,
   races do not. *)
let locked_helper_project =
  [
    ( "helpers.ml",
      "let m = Mutex.create ()\n\
       let hits = ref 0\n\
       let install c = hits := 1; Catalog.create_index c \"x\"\n\
       let locked c =\n\
      \  Mutex.lock m;\n\
      \  Fun.protect ~finally:(fun () -> Mutex.unlock m) (fun () -> install c)\n\
       let run cs = Par.iter locked cs\n" );
    ("benefit.ml", "let evaluate c = Helpers.locked c\n");
  ]

let callgraph_tests =
  [
    tc "cross-unit D003 the per-file analysis provably missed" (fun () ->
        let helpers = "let set c defs = Catalog.create_index c defs\n" in
        let benefit = "let evaluate c defs = Helpers.set c defs\n" in
        (* Either unit alone — the old per-file view — is clean: the mutator
           lives outside the what-if module, and the what-if module only
           calls an opaque sibling. *)
        Alcotest.(check (list string))
          "helpers.ml alone is clean" []
          (List.map
             (fun (f : Finding.t) -> f.id)
             (findings ~filename:"lib/core/helpers.ml" helpers));
        Alcotest.(check (list string))
          "benefit.ml alone is clean" []
          (List.map
             (fun (f : Finding.t) -> f.id)
             (findings ~filename:"lib/core/benefit.ml" benefit));
        with_temp_project
          [ ("helpers.ml", helpers); ("benefit.ml", benefit) ]
          (fun dir ->
            let report = Lint.lint_paths [ dir ] in
            let d003 =
              List.filter (fun (f : Finding.t) -> f.id = "D003") report.findings
            in
            Alcotest.(check int) "whole-program view finds it" 1 (List.length d003);
            let f = List.hd d003 in
            Alcotest.(check string)
              "anchored at the mutator site" "helpers.ml"
              (Filename.basename f.Finding.file);
            Alcotest.(check bool)
              "names the cross-unit entry point" true
              (contains f.Finding.message "Benefit.evaluate")));
    tc "cross-unit R001: Par.map of a function touching another unit's global"
      (fun () ->
        with_temp_project
          [
            ("state.ml", "let counter = ref 0\n");
            ( "worker.ml",
              "let tick _x = State.counter := !State.counter + 1\n\
               let run items = Par.map tick items\n" );
          ]
          (fun dir ->
            let report = Lint.lint_paths [ dir ] in
            let r001 =
              List.filter (fun (f : Finding.t) -> f.id = "R001") report.findings
            in
            Alcotest.(check bool) "flagged" true (r001 <> []);
            let f = List.hd r001 in
            Alcotest.(check string)
              "anchored at the racy access" "worker.ml"
              (Filename.basename f.Finding.file);
            Alcotest.(check bool)
              "names the global and the call path" true
              (contains f.Finding.message "counter"
              && contains f.Finding.message "via tick")));
    tc "cross-unit D003 propagates through a Mutex.lock helper" (fun () ->
        with_temp_project locked_helper_project (fun dir ->
            let d003 =
              List.filter
                (fun (f : Finding.t) -> f.id = "D003")
                (Lint.lint_paths [ dir ]).findings
            in
            Alcotest.(check (list string))
              "anchored at the mutator below the lock" [ "helpers.ml" ]
              (List.map (fun (f : Finding.t) -> Filename.basename f.file) d003);
            Alcotest.(check bool)
              "the what-if caller above the lock is listed" true
              (contains (List.hd d003).Finding.message "Benefit.evaluate")));
    tc "the same Mutex.lock helper cuts R001" (fun () ->
        with_temp_project locked_helper_project (fun dir ->
            let report = Lint.lint_paths [ dir ] in
            Alcotest.(check (list string))
              "no R001 below the lock" []
              (List.filter_map
                 (fun (f : Finding.t) ->
                   if f.id = "R001" then Some (Finding.to_string f) else None)
                 report.findings)));
    tc "callgraph DOT is deterministic and shows the cross-unit edge" (fun () ->
        with_temp_project
          [
            ("helpers.ml", "let set c defs = Catalog.create_index c defs\n");
            ("benefit.ml", "let evaluate c defs = Helpers.set c defs\n");
          ]
          (fun dir ->
            let dot1, errs = Lint.callgraph_dot [ dir ] in
            let dot2, _ = Lint.callgraph_dot [ dir ] in
            Alcotest.(check (list string))
              "no errors" []
              (List.map (fun (e : Lint.error) -> e.message) errs);
            Alcotest.(check string) "deterministic" dot1 dot2;
            Alcotest.(check bool)
              "digraph with both labelled nodes" true
              (contains dot1 "digraph"
              && contains dot1 "benefit.evaluate"
              && contains dot1 "helpers.set")));
  ]

(* ---------------------------------------------------------------- R001 -- *)

let r001_tests =
  [
    tc "closure capturing a raw local ref" (fun () ->
        check_ids "flagged at the reference"
          [ (3, "R001") ]
          "let f items =\n  let acc = ref 0 in\n  Par.iter (fun x -> acc := x) items\n");
    tc "Atomic-wrapped local is clean" (fun () ->
        check_ids "clean" []
          "let f items =\n\
          \  let acc = Atomic.make 0 in\n\
          \  Par.iter (fun _x -> Atomic.incr acc) items\n");
    tc "per-item results are clean" (fun () ->
        check_ids "clean" [] "let f items = Par.map (fun x -> x + 1) items\n");
    tc "named function reaching a toplevel ref, same unit" (fun () ->
        check_ids "D001 for the global, R001 at the access"
          [ (1, "D001"); (2, "R001") ]
          "let table = Hashtbl.create 16\n\
           let record x = Hashtbl.replace table x ()\n\
           let run items = Par.iter record items\n");
    tc "Domain.spawn closure reaching a toplevel Hashtbl" (fun () ->
        check_ids "D001 for the global, R001 at the access"
          [ (1, "D001"); (2, "R001") ]
          "let t = Hashtbl.create 8\n\
           let spawn () = Domain.spawn (fun () -> Hashtbl.clear t)\n");
    tc "Mutex.lock discipline defers to the human" (fun () ->
        (* No R001: the lock covers the access.  The bare lock/unlock pair
           around a may-raise container call is L002's business now. *)
        check_ids "D001 for the raw global, L002 for the bare pair"
          [ (1, "D001"); (3, "L002") ]
          "let table = Hashtbl.create 16\n\
           let m = Mutex.create ()\n\
           let record x = Mutex.lock m; Hashtbl.replace table x (); Mutex.unlock m\n\
           let run items = Par.iter record items\n");
    tc "mutable-field write on a captured record" (fun () ->
        check_ids "flagged"
          [ (2, "R001") ]
          "type t = { mutable count : int }\n\
           let bump t items = Par.iter (fun _x -> t.count <- t.count + 1) items\n");
    tc "attribute suppression at the fan-out site" (fun () ->
        check_ids "suppressed" []
          "let f items =\n\
          \  let acc = ref 0 in\n\
          \  (Par.iter (fun x -> acc := x) items [@lint.allow \"R001\"])\n");
    tc "raw module-level dense table written from a Par task" (fun () ->
        (* The shape of the pattern-coverage table without its wrapper: a
           byte cell per id pair, filled in from the parallel evaluator. *)
        check_ids "D001 for the table, R001 at the write"
          [ (1, "D001"); (2, "R001") ]
          "let cells = Bytes.make 4096 '\\000'\n\
           let mark i = Bytes.set cells i '\\002'\n\
           let run ids = Par.iter mark ids\n");
    tc "snapshot table published under a lock from a Par task is clean" (fun () ->
        (* The [Interner.Pairs] discipline: readers take the Atomic snapshot,
           the writer copies it under the mutex and publishes the copy, so
           no save/restore pair (X001) and no raw global (R001) appear. *)
        check_ids "clean" []
          "let rows = Atomic.make [||]\n\
           let lock = Mutex.create ()\n\
           let publish a row =\n\
          \  Mutex.lock lock;\n\
          \  Fun.protect ~finally:(fun () -> Mutex.unlock lock) (fun () ->\n\
          \      let current = Atomic.get rows in\n\
          \      let next = Array.make (max (Array.length current) (a + 1)) Bytes.empty in\n\
          \      Array.blit current 0 next 0 (Array.length current);\n\
          \      next.(a) <- row;\n\
          \      Atomic.set rows next)\n\
           let run items = Par.iter (fun (a, row) -> publish a row) items\n");
  ]

(* ---------------------------------------------------------------- R002 -- *)

let r002_tests =
  [
    tc "lock-order inversion flagged in both directions" (fun () ->
        check_ids "both sites"
          [ (3, "R002"); (4, "R002") ]
          "let a = Mutex.create ()\n\
           let b = Mutex.create ()\n\
           let f () = Mutex.lock a; Mutex.lock b; Mutex.unlock b; Mutex.unlock a\n\
           let g () = Mutex.lock b; Mutex.lock a; Mutex.unlock a; Mutex.unlock b\n");
    tc "consistent order is clean" (fun () ->
        check_ids "clean" []
          "let a = Mutex.create ()\n\
           let b = Mutex.create ()\n\
           let f () = Mutex.lock a; Mutex.lock b; Mutex.unlock b; Mutex.unlock a\n\
           let g () = Mutex.lock a; Mutex.lock b; Mutex.unlock b; Mutex.unlock a\n");
    tc "re-lock of the same mutex self-deadlocks" (fun () ->
        check_ids "flagged"
          [ (2, "R002") ]
          "let m = Mutex.create ()\nlet f () = Mutex.lock m; Mutex.lock m\n");
    tc "inversion through a callee" (fun () ->
        check_ids "call site and direct site"
          [ (4, "R002"); (5, "R002") ]
          "let a = Mutex.create ()\n\
           let b = Mutex.create ()\n\
           let inner () = Mutex.lock b; Mutex.unlock b\n\
           let outer () = Mutex.lock a; inner (); Mutex.unlock a\n\
           let other () = Mutex.lock b; Mutex.lock a; Mutex.unlock a; Mutex.unlock b\n");
    tc "closure body does not inherit the definition-site lock" (fun () ->
        check_ids "clean" []
          "let a = Mutex.create ()\n\
           let b = Mutex.create ()\n\
           let f () =\n\
          \  Mutex.lock a;\n\
          \  let g () = Mutex.lock b; Mutex.unlock b in\n\
          \  Mutex.unlock a;\n\
          \  g\n\
           let h () = Mutex.lock b; Mutex.lock a; Mutex.unlock a; Mutex.unlock b\n");
    tc "attribute suppression keeps the other direction" (fun () ->
        check_ids "only the unsuppressed site"
          [ (6, "R002") ]
          "let a = Mutex.create ()\n\
           let b = Mutex.create ()\n\
           let f () =\n\
          \  Mutex.lock a; (Mutex.lock b [@lint.allow \"R002\"]);\n\
          \  Mutex.unlock b; Mutex.unlock a\n\
           let g () = Mutex.lock b; Mutex.lock a; Mutex.unlock a; Mutex.unlock b\n");
    tc "locks on exclusive branches are never held together" (fun () ->
        check_ids "clean" []
          "let a = Mutex.create ()\n\
           let b = Mutex.create ()\n\
           let f c = if c then Mutex.lock a else Mutex.lock b\n\
           let g () = Mutex.lock b; Mutex.lock a; Mutex.unlock a; Mutex.unlock b\n");
    tc "re-lock of a mutex held on one branch self-deadlocks" (fun () ->
        let fs =
          findings
            "let m = Mutex.create ()\n\
             let f p = (if p then Mutex.lock m else Mutex.unlock m); Mutex.lock m\n"
        in
        Alcotest.(check (list (pair int string)))
          "flagged at the second lock" [ (2, "R002") ]
          (List.map (fun (f : Finding.t) -> (f.line, f.id)) fs);
        Alcotest.(check bool)
          "self-deadlock message" true
          (contains (List.hd fs).Finding.message "m is already held"));
  ]

(* ---------------------------------------------------------------- R003 -- *)

let r003_tests =
  [
    tc "nested get inside set" (fun () ->
        check_ids "flagged"
          [ (2, "R003") ]
          "let c = Atomic.make 0\nlet bump () = Atomic.set c (Atomic.get c + 1)\n");
    tc "let-bound save/restore idiom is not matched" (fun () ->
        check_ids "clean" []
          "let c = Atomic.make 0\n\
           let bump () = let v = Atomic.get c in Atomic.set c (v + 1)\n");
    tc "get of a different atomic is fine" (fun () ->
        check_ids "clean" []
          "let a = Atomic.make 0\n\
           let b = Atomic.make 0\n\
           let copy () = Atomic.set a (Atomic.get b)\n");
    tc "field-path targets match symbolically" (fun () ->
        check_ids "flagged"
          [ (2, "R003") ]
          "type t = { counter : int Atomic.t }\n\
           let bump t = Atomic.set t.counter (Atomic.get t.counter + 1)\n");
    tc "attribute suppression" (fun () ->
        check_ids "suppressed" []
          "let c = Atomic.make 0\n\
           let bump () = (Atomic.set c (Atomic.get c + 1) [@lint.allow \"R003\"])\n");
  ]

(* ------------------------------------- L001: blocking call under a lock -- *)

let l001_tests =
  [
    tc "IO builtin inside a protected critical section" (fun () ->
        let fs =
          findings
            "let m = Mutex.create ()\n\
             let run () =\n\
            \  Mutex.lock m;\n\
            \  Fun.protect ~finally:(fun () -> Mutex.unlock m)\n\
            \    (fun () -> print_endline \"x\")\n"
        in
        Alcotest.(check (list (pair int string)))
          "flagged at the blocking site"
          [ (5, "L001") ]
          (List.map (fun (f : Finding.t) -> (f.line, f.id)) fs);
        Alcotest.(check bool)
          "names the primitive and the mutex" true
          (contains (List.hd fs).Finding.message "print_endline"
          && contains (List.hd fs).Finding.message "mutex m"));
    tc "optimizer entry inside a protected critical section" (fun () ->
        check_ids "flagged"
          [ (5, "L001") ]
          "let m = Mutex.create ()\n\
           let run c s =\n\
          \  Mutex.lock m;\n\
          \  Fun.protect ~finally:(fun () -> Mutex.unlock m)\n\
          \    (fun () -> Optimizer.optimize c s)\n");
    tc "pure work under the lock is fine" (fun () ->
        check_ids "clean" []
          "let m = Mutex.create ()\n\
           let n = Atomic.make 0\n\
           let bump () =\n\
          \  Mutex.lock m;\n\
          \  Atomic.incr n;\n\
          \  Mutex.unlock m\n");
    tc "IO after the unlock is fine" (fun () ->
        check_ids "clean" []
          "let m = Mutex.create ()\n\
           let n = Atomic.make 0\n\
           let run () =\n\
          \  Mutex.lock m;\n\
          \  Atomic.incr n;\n\
          \  Mutex.unlock m;\n\
          \  print_endline \"done\"\n");
    tc "attribute suppression at the blocking site" (fun () ->
        check_ids "suppressed" []
          "let m = Mutex.create ()\n\
           let run () =\n\
          \  Mutex.lock m;\n\
          \  Fun.protect ~finally:(fun () -> Mutex.unlock m)\n\
          \    (fun () -> (print_endline \"x\" [@lint.allow \"L001\"]))\n");
    tc "cross-unit: blocking only visible through the effect summary" (fun () ->
        let sink = "let log s = print_endline s\n" in
        let worker =
          "let m = Mutex.create ()\n\
           let run () =\n\
          \  Mutex.lock m;\n\
          \  Fun.protect ~finally:(fun () -> Mutex.unlock m)\n\
          \    (fun () -> Sink.log \"x\")\n"
        in
        (* The lock-holding unit alone is clean: [Sink.log] is opaque, so
           nothing marks it as blocking. *)
        Alcotest.(check (list string))
          "worker.ml alone is clean" []
          (List.map (fun (f : Finding.t) -> f.id) (findings ~filename:"worker.ml" worker));
        with_temp_project
          [ ("sink.ml", sink); ("worker.ml", worker) ]
          (fun dir ->
            let report = Lint.lint_paths [ dir ] in
            let l001 =
              List.filter (fun (f : Finding.t) -> f.id = "L001") report.findings
            in
            Alcotest.(check int) "whole-program view finds it" 1 (List.length l001);
            let f = List.hd l001 in
            Alcotest.(check string)
              "anchored at the call under the lock" "worker.ml"
              (Filename.basename f.Finding.file);
            Alcotest.(check bool)
              "names the callee's summary" true
              (contains f.Finding.message "log performs IO")));
  ]

(* ------------------------- L002: lock leaked on an exceptional path ---- *)

let l002_tests =
  [
    tc "opaque call between bare lock and unlock" (fun () ->
        let fs =
          findings
            "let m = Mutex.create ()\n\
             let run f =\n\
            \  Mutex.lock m;\n\
            \  f ();\n\
            \  Mutex.unlock m\n"
        in
        Alcotest.(check (list (pair int string)))
          "flagged at the lock site"
          [ (3, "L002") ]
          (List.map (fun (f : Finding.t) -> (f.line, f.id)) fs);
        Alcotest.(check bool)
          "prescribes Fun.protect over the same mutex" true
          (contains (List.hd fs).Finding.message
             "Fun.protect ~finally:(fun () -> Mutex.unlock m)"));
    tc "explicit raise under the lock" (fun () ->
        check_ids "flagged"
          [ (3, "L002") ]
          "let m = Mutex.create ()\n\
           let run b =\n\
          \  Mutex.lock m;\n\
          \  if b then raise Exit;\n\
          \  Mutex.unlock m\n");
    tc "Fun.protect discharges the lock" (fun () ->
        check_ids "clean" []
          "let m = Mutex.create ()\n\
           let run f =\n\
          \  Mutex.lock m;\n\
          \  Fun.protect ~finally:(fun () -> Mutex.unlock m) f\n");
    tc "a closure inside a finalizer is judged once" (fun () ->
        (* The finalizer is walked from both ends of the body; its closure
           must still be queued, analyzed and reported once. *)
        check_ids "one finding"
          [ (4, "L002") ]
          "let m = Mutex.create ()\n\
           let run g f =\n\
          \  Fun.protect\n\
          \    ~finally:(fun () -> g (fun () -> Mutex.lock m; f (); Mutex.unlock m))\n\
          \    (fun () -> ())\n");
    tc "total critical section needs no finalizer" (fun () ->
        check_ids "clean" []
          "let m = Mutex.create ()\n\
           let n = Atomic.make 0\n\
           let bump () =\n\
          \  Mutex.lock m;\n\
          \  Atomic.incr n;\n\
          \  Mutex.unlock m\n");
    tc "catch-all try absorbs the exceptional path" (fun () ->
        check_ids "clean" []
          "let m = Mutex.create ()\n\
           let run f =\n\
          \  Mutex.lock m;\n\
          \  (try f () with _ -> ());\n\
          \  Mutex.unlock m\n");
    tc "attribute suppression at the lock site" (fun () ->
        check_ids "suppressed" []
          "let m = Mutex.create ()\n\
           let run f =\n\
          \  (Mutex.lock m [@lint.allow \"L002\"]);\n\
          \  f ();\n\
          \  Mutex.unlock m\n");
  ]

(* ------------------- X001: save/restore skipped on exceptional path ---- *)

let x001_tests =
  [
    tc "atomic save/restore around an opaque call" (fun () ->
        let fs =
          findings
            "let flag = Atomic.make false\n\
             let with_flag f =\n\
            \  let saved = Atomic.get flag in\n\
            \  Atomic.set flag true;\n\
            \  let r = f () in\n\
            \  Atomic.set flag saved;\n\
            \  r\n"
        in
        Alcotest.(check (list (pair int string)))
          "flagged at the save"
          [ (3, "X001") ]
          (List.map (fun (f : Finding.t) -> (f.line, f.id)) fs);
        Alcotest.(check bool)
          "names the saved state and the binding" true
          (contains (List.hd fs).Finding.message "Atomic.get flag"
          && contains (List.hd fs).Finding.message "saved"));
    tc "ref save/restore around an opaque call" (fun () ->
        check_ids "flagged"
          [ (3, "X001") ]
          "let depth = ref 0 [@@lint.allow \"D001\"]\n\
           let deeper f =\n\
          \  let saved = !depth in\n\
          \  depth := saved + 1;\n\
          \  let r = f () in\n\
          \  depth := saved;\n\
          \  r\n");
    tc "restore inside Fun.protect ~finally discharges" (fun () ->
        check_ids "clean" []
          "let flag = Atomic.make false\n\
           let with_flag f =\n\
          \  let saved = Atomic.get flag in\n\
          \  Atomic.set flag true;\n\
          \  Fun.protect ~finally:(fun () -> Atomic.set flag saved) f\n");
    tc "a read with no matching restore is not a save" (fun () ->
        check_ids "clean" []
          "let flag = Atomic.make false\n\
           let peek f =\n\
          \  let v = Atomic.get flag in\n\
          \  f ();\n\
          \  v\n");
    tc "attribute suppression on the saving expression" (fun () ->
        check_ids "suppressed" []
          "let flag = Atomic.make false\n\
           let with_flag f =\n\
          \  let saved = (Atomic.get flag [@lint.allow \"X001\"]) in\n\
          \  Atomic.set flag true;\n\
          \  let r = f () in\n\
          \  Atomic.set flag saved;\n\
          \  r\n");
  ]

(* --------------------- X002: unlock without a lock on this path -------- *)

let x002_tests =
  [
    tc "double unlock" (fun () ->
        let fs =
          findings
            "let m = Mutex.create ()\n\
             let run () =\n\
            \  Mutex.lock m;\n\
            \  Mutex.unlock m;\n\
            \  Mutex.unlock m\n"
        in
        Alcotest.(check (list (pair int string)))
          "flagged at the second unlock"
          [ (5, "X002") ]
          (List.map (fun (f : Finding.t) -> (f.line, f.id)) fs));
    tc "maybe-held joins stay silent; the definite re-unlock fires" (fun () ->
        (* After the branch the lock is only *maybe* held, so the first
           unlock passes; it leaves the lock statically free, so the second
           unlock is a definite error. *)
        check_ids "flagged"
          [ (6, "X002") ]
          "let m = Mutex.create ()\n\
           let n = Atomic.make 0\n\
           let run b =\n\
          \  if b then Mutex.lock m else Atomic.incr n;\n\
          \  Mutex.unlock m;\n\
          \  Mutex.unlock m\n");
    tc "balanced lock/unlock is fine" (fun () ->
        check_ids "clean" []
          "let m = Mutex.create ()\n\
           let n = Atomic.make 0\n\
           let bump () =\n\
          \  Mutex.lock m;\n\
          \  Atomic.incr n;\n\
          \  Mutex.unlock m\n");
    tc "a release helper entered with unknown lock state is not flagged"
      (fun () ->
        (* The caller may well hold the lock; only a *statically* unlocked
           path is an error. *)
        check_ids "clean" []
          "let m = Mutex.create ()\nlet release () = Mutex.unlock m\n");
    tc "an unlock at a Mixed state stays silent, however long the branch" (fun () ->
        (* Both last unlocks join the unlocked else path with the locked
           then path: Mixed, which is silent.  Only the length of the
           then branch differs. *)
        check_ids "long branch" []
          "let m = Mutex.create ()\n\
           let f c =\n\
          \  Mutex.lock m;\n\
          \  Mutex.unlock m;\n\
          \  if c then begin if c then (); if c then (); if c then (); Mutex.lock m end;\n\
          \  Mutex.unlock m\n";
        check_ids "short branch" []
          "let m = Mutex.create ()\n\
           let g c =\n\
          \  Mutex.lock m;\n\
          \  Mutex.unlock m;\n\
          \  if c then Mutex.lock m;\n\
          \  Mutex.unlock m\n");
    tc "an unlock after a branch that locks and unlocks fires" (fun () ->
        check_ids "flagged" [ (6, "X002") ]
          "let m = Mutex.create ()\n\
           let h c =\n\
          \  Mutex.lock m;\n\
          \  Mutex.unlock m;\n\
          \  if c then (Mutex.lock m; Mutex.unlock m; ignore c);\n\
          \  Mutex.unlock m\n");
    tc "a finalizer's unlock is judged from both ends joined" (fun () ->
        (* Held from the normal end, free from the exceptional one: the
           unlock's state is Mixed, which is silent. *)
        check_ids "clean" []
          "let m = Mutex.create ()\n\
           let run p =\n\
          \  Fun.protect ~finally:(fun () -> Mutex.unlock m) (fun () ->\n\
          \    if p then Mutex.lock m else (Mutex.lock m; Mutex.unlock m; raise Exit))\n");
    tc "attribute suppression at the unlock site" (fun () ->
        check_ids "suppressed" []
          "let m = Mutex.create ()\n\
           let run () =\n\
          \  Mutex.lock m;\n\
          \  Mutex.unlock m;\n\
          \  (Mutex.unlock m [@lint.allow \"X002\"])\n");
  ]

(* ------------------------------------ the deliberately leaking fixture -- *)

let dataflow_fixture_tests =
  [
    tc "one leaking function trips all four checks" (fun () ->
        check_ids "all four"
          [ (4, "L002"); (5, "X001"); (7, "L001"); (11, "X002") ]
          "let m = Mutex.create ()\n\
           let flag = Atomic.make false\n\
           let leak f =\n\
          \  Mutex.lock m;\n\
          \  let saved = Atomic.get flag in\n\
          \  Atomic.set flag true;\n\
          \  print_endline \"working\";\n\
          \  let r = f () in\n\
          \  Atomic.set flag saved;\n\
          \  Mutex.unlock m;\n\
          \  Mutex.unlock m;\n\
          \  r\n");
    tc "each finding is individually suppressible" (fun () ->
        check_ids "all suppressed" []
          "let m = Mutex.create ()\n\
           let flag = Atomic.make false\n\
           let leak f =\n\
          \  (Mutex.lock m [@lint.allow \"L002\"]);\n\
          \  let saved = (Atomic.get flag [@lint.allow \"X001\"]) in\n\
          \  Atomic.set flag true;\n\
          \  (print_endline \"working\" [@lint.allow \"L001\"]);\n\
          \  let r = f () in\n\
          \  Atomic.set flag saved;\n\
          \  Mutex.unlock m;\n\
          \  (Mutex.unlock m [@lint.allow \"X002\"]);\n\
          \  r\n");
  ]

(* ------------------------- qcheck: lock balance vs a path interpreter -- *)

(* A tiny shape language over one mutex, rendered to source and linted; a
   reference interpreter enumerates every execution path and decides
   whether some path exits exceptionally with the lock held — which is
   exactly L002's claim —, whether some path locks the mutex while it is
   held, which is R002's self-deadlock claim, and which unlocks some path
   reaches with the mutex free and none with it held, which is X002's.
   This pits the abstract walk (exceptional states, try re-joins,
   Fun.protect finalizers, joins at merges, loop-head fixpoints) against
   an independent, obviously-correct semantics. *)
type shape =
  | Nop
  | Lock
  | Unlock
  | Raise
  | Seq of shape * shape
  | If of shape * shape
  | Try of shape * shape
  | Protect of shape * shape  (* body, finally *)
  | While of shape

let rec render = function
  | Nop -> "()"
  | Lock -> "Mutex.lock m"
  | Unlock -> "Mutex.unlock m"
  | Raise -> "raise Exit"
  | Seq (a, b) -> Printf.sprintf "(%s; %s)" (render a) (render b)
  | If (a, b) -> Printf.sprintf "(if p then %s else %s)" (render a) (render b)
  | Try (a, b) -> Printf.sprintf "(try %s with _ -> %s)" (render a) (render b)
  | Protect (a, f) ->
      Printf.sprintf "(Fun.protect ~finally:(fun () -> %s) (fun () -> %s))"
        (render f) (render a)
  | While a -> Printf.sprintf "(while p do %s done)" (render a)

let shape_source s = "let m = Mutex.create ()\nlet run p = " ^ render s ^ "\n"

(* The mutex on one path: the root is entered not knowing it. *)
type held = Unknown | Held | Free

type outcome = Normal | Exc

(* Locks and unlocks in a shape. *)
let rec ops = function
  | Nop | Raise -> 0
  | Lock | Unlock -> 1
  | Seq (a, b) | If (a, b) | Try (a, b) | Protect (a, b) -> ops a + ops b
  | While a -> ops a

(* Every (held, outcome) end state reachable by some path of [s] entered
   in [h] — as a set, so a long run of branches stays six states wide
   instead of doubling.  [visit i h] sees each lock or unlock a path
   reaches and the mutex there, [i] numbering them in rendered order from
   [first]. *)
let rec run visit first s h =
  List.sort_uniq compare
  @@
  match s with
  | Nop -> [ (h, Normal) ]
  | Lock ->
      visit first h;
      [ (Held, Normal) ]
  | Unlock ->
      visit first h;
      [ (Free, Normal) ]
  | Raise -> [ (h, Exc) ]
  | Seq (a, b) ->
      List.concat_map
        (fun (h, o) ->
          match o with Normal -> run visit (first + ops a) b h | Exc -> [ (h, Exc) ])
        (run visit first a h)
  | If (a, b) -> run visit first a h @ run visit (first + ops a) b h
  | Try (a, b) ->
      List.concat_map
        (fun (h, o) ->
          match o with Normal -> [ (h, Normal) ] | Exc -> run visit (first + ops a) b h)
        (run visit first a h)
  | Protect (a, f) ->
      (* the finalizer is rendered first *)
      List.concat_map
        (fun (h, o) ->
          List.map
            (fun (hf, fo) -> (hf, if o = Normal && fo = Normal then Normal else Exc))
            (run visit first f h))
        (run visit (first + ops f) a h)
  | While a ->
      (* Zero or more iterations: every state the loop head can be in
         exits normally, and every exceptional end of the body escapes. *)
      let rec heads seen = function
        | [] -> seen
        | h :: todo ->
            let next =
              List.filter_map
                (fun (h', o) -> if o = Normal && not (List.mem h' seen) then Some h' else None)
                (run visit first a h)
            in
            heads (next @ seen) (next @ todo)
      in
      List.concat_map
        (fun h -> (h, Normal) :: List.filter (fun (_, o) -> o = Exc) (run visit first a h))
        (heads [ h ] [ h ])

(* The end states of [s] run from an unknown mutex, and a test of whether
   some path reaches lock or unlock [i] with the mutex in a given state. *)
let interpret s =
  let reached = Hashtbl.create 8 in
  let ends = run (fun i h -> Hashtbl.replace reached (i, h) ()) 0 s Unknown in
  (ends, fun i h -> Hashtbl.mem reached (i, h))

(* The column of each lock and unlock in [shape_source s], in rendered
   order, and whether it is an unlock. *)
let op_columns s =
  let line = "let run p = " ^ render s in
  List.filter_map
    (fun i ->
      if i + 7 <= String.length line && String.sub line i 6 = "Mutex." then
        Some (i, line.[i + 6] = 'u')
      else None)
    (List.init (String.length line) Fun.id)

let shape_gen =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           if n <= 0 then oneofl [ Nop; Lock; Unlock; Raise ]
           else
             frequency
               [
                 (2, oneofl [ Nop; Lock; Unlock; Raise ]);
                 (3, map2 (fun a b -> Seq (a, b)) (self (n / 2)) (self (n / 2)));
                 (1, map2 (fun a b -> If (a, b)) (self (n / 2)) (self (n / 2)));
                 (1, map2 (fun a b -> Try (a, b)) (self (n / 2)) (self (n / 2)));
                 ( 1,
                   map2 (fun a b -> Protect (a, b)) (self (n / 2)) (self (n / 2))
                 );
                 (1, map (fun a -> While a) (self (n / 2)));
               ]))

let shape_arbitrary = QCheck.make ~print:render shape_gen

let fired id s =
  List.filter_map
    (fun (f : Finding.t) -> if f.id = id then Some f.col else None)
    (findings (shape_source s))

let dataflow_qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"L002 agrees with the path interpreter" ~count:300
         shape_arbitrary (fun s ->
           let ends, _ = interpret s in
           fired "L002" s <> [] = List.mem (Held, Exc) ends));
    (* For one mutex the may-held lockset is exact: a lock is reached with
       the mutex held on some path iff the path enumeration finds one. *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"R002 self-deadlock agrees with the path interpreter"
         ~count:300 shape_arbitrary (fun s ->
           let _, reached = interpret s in
           fired "R002" s <> []
           = List.exists
               (fun (i, (_, unlock)) -> (not unlock) && reached i Held)
               (List.mapi (fun i op -> (i, op)) (op_columns s))));
    (* An unlock fires iff some path reaches it with the mutex free and no
       path reaches it with the mutex held: Unknown ⊔ NotHeld is NotHeld,
       anything joined with Held is silent. *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"X002 agrees with the path interpreter" ~count:300
         shape_arbitrary (fun s ->
           let _, reached = interpret s in
           let want =
             List.concat
               (List.mapi
                  (fun i (col, unlock) ->
                    if unlock && reached i Free && not (reached i Held) then [ col ] else [])
                  (op_columns s))
           in
           fired "X002" s = want));
  ]

(* ------------------------------------- qcheck: the transitive engine -- *)

(* A random call graph over bindings f0..f(n-1), rendered to source and
   linked by the real resolver: each body calls its successors.  [marks]
   seed the boolean fixpoint, [cuts] the reach query from [root]. *)
type rgraph = {
  edges : int list array;
  marks : bool array;
  cuts : bool array;
  root : int;
}

let rgraph_gen =
  QCheck.Gen.(
    int_range 1 9 >>= fun size ->
    let node = int_bound (size - 1) in
    let per_node g = array_size (return size) g in
    per_node (list_size (int_bound 3) node) >>= fun edges ->
    per_node bool >>= fun marks ->
    per_node (frequency [ (1, return true); (3, return false) ]) >>= fun cuts ->
    map (fun root -> { edges; marks; cuts; root }) node)

let render_graph g =
  String.concat ""
    (List.mapi
       (fun i cs ->
         Printf.sprintf "let f%d () = %s()\n" i
           (String.concat "" (List.map (Printf.sprintf "f%d (); ") cs)))
       (Array.to_list g.edges))

let rgraph_arbitrary = QCheck.make ~print:render_graph rgraph_gen

let build_graph g =
  let source = render_graph g in
  let structure = Parse.implementation (Lexing.from_string source) in
  Callgraph.build [ Callgraph.make_unit ~path:"g.ml" ~source structure ]

(* The graph's edges: the call lists of one site walk. *)
let succs graph = Sites.calls (Sites.build graph)

let node_index (n : Callgraph.node) =
  int_of_string (String.sub n.name 1 (String.length n.name - 1))

let graph_node graph i =
  List.find (fun (n : Callgraph.node) -> node_index n = i) (Callgraph.nodes graph)

(* The oracle: a plain DFS from [i] that never enters a [cut] node. *)
let closure ?(cut = fun _ -> false) g i =
  let seen = Array.make (Array.length g.edges) false in
  let rec visit j =
    if not (seen.(j) || cut j) then begin
      seen.(j) <- true;
      List.iter visit g.edges.(j)
    end
  in
  visit i;
  List.filter (fun j -> seen.(j)) (List.init (Array.length seen) Fun.id)

let union a b = List.sort_uniq compare (a @ b)

let engine_qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"fixpoint with || and with union equals DFS closure"
         ~count:300 rgraph_arbitrary (fun g ->
           let graph = build_graph g in
           let succ = succs graph in
           let any_mark =
             Callgraph.fixpoint ~succ ~join:( || ) (fun n -> g.marks.(node_index n))
           in
           let reached = Callgraph.fixpoint ~succ ~join:union (fun n -> [ node_index n ]) in
           let ids = List.init (Array.length g.edges) Fun.id in
           (* Query in opposite orders so the two tables fill from different
              entry points. *)
           List.for_all
             (fun i ->
               any_mark (graph_node graph i)
               = List.exists (fun j -> g.marks.(j)) (closure g i))
             ids
           && List.for_all
                (fun i -> reached (graph_node graph i) = closure g i)
                (List.rev ids)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"reach enters exactly the uncut reachable nodes along real call paths"
         ~count:300 rgraph_arbitrary (fun g ->
           let graph = build_graph g in
           let cut n = g.cuts.(node_index n) in
           let found =
             Callgraph.reach ~succ:(succs graph) ~cut (graph_node graph g.root)
           in
           let is_edge a b = List.mem b g.edges.(a) in
           let rec real_path = function
             | a :: (b :: _ as rest) -> is_edge a b && real_path rest
             | _ -> true
           in
           List.sort compare (List.map (fun (n, _) -> node_index n) found)
           = closure ~cut:(fun j -> g.cuts.(j)) g g.root
           && List.for_all
                (fun (n, trail) ->
                  let path = List.map node_index (trail @ [ n ]) in
                  List.hd path = g.root
                  && real_path path
                  && not (List.exists cut (trail @ [ n ])))
                found));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"fixpoint and reach are deterministic across runs"
         ~count:300 rgraph_arbitrary (fun g ->
           let run () =
             let graph = build_graph g in
             let succ = succs graph in
             let reached = Callgraph.fixpoint ~succ ~join:union (fun n -> [ node_index n ]) in
             let names = List.map (fun (n : Callgraph.node) -> n.name) in
             ( List.map (fun n -> reached n) (Callgraph.nodes graph),
               List.map
                 (fun (n, trail) -> names (trail @ [ n ]))
                 (Callgraph.reach ~succ
                    ~cut:(fun n -> g.cuts.(node_index n))
                    (graph_node graph g.root)) )
           in
           run () = run ()));
  ]

(* --------------------------------------------- --only/--skip selection -- *)

let select_tests =
  [
    tc "empty filters keep the whole catalog in order" (fun () ->
        Alcotest.(check (result (list string) string))
          "identity"
          (Ok (List.map (fun (c : Checks.check_info) -> c.id) Checks.catalog))
          (Checks.select ~only:[] ~skip:[]));
    tc "only restricts, in catalog order regardless of input order" (fun () ->
        Alcotest.(check (result (list string) string))
          "catalog order"
          (Ok [ "L001"; "X002" ])
          (Checks.select ~only:[ "X002"; "L001" ] ~skip:[]));
    tc "skip removes from the catalog" (fun () ->
        match Checks.select ~only:[] ~skip:[ "D001"; "H001" ] with
        | Error e -> Alcotest.failf "unexpected error: %s" e
        | Ok ids ->
            Alcotest.(check bool)
              "removed" true
              ((not (List.mem "D001" ids)) && not (List.mem "H001" ids));
            Alcotest.(check bool) "kept the rest" true (List.mem "L002" ids));
    tc "skip intersects only" (fun () ->
        Alcotest.(check (result (list string) string))
          "only minus skip"
          (Ok [ "L001" ])
          (Checks.select ~only:[ "L001"; "L002" ] ~skip:[ "L002" ]));
    tc "unknown IDs are an error" (fun () ->
        (match Checks.select ~only:[ "Z999" ] ~skip:[] with
        | Ok _ -> Alcotest.fail "expected an error"
        | Error e -> Alcotest.(check bool) "names the ID" true (contains e "Z999"));
        match Checks.select ~only:[] ~skip:[ "Q000" ] with
        | Ok _ -> Alcotest.fail "expected an error"
        | Error e -> Alcotest.(check bool) "names the ID" true (contains e "Q000"));
  ]

(* ---------------------------------------------- versioned JSON envelope -- *)

let mk_finding ?(file = "a.ml") ?(line = 1) id =
  Finding.make ~file ~line ~col:0 ~id ~message:"m"

let json_report_tests =
  [
    tc "schema version and check catalog header" (fun () ->
        let s = Lint.report_to_json Lint.empty_report in
        Alcotest.(check bool) "version" true (contains s "\"schema_version\": 5");
        Alcotest.(check bool) "catalog has D001" true (contains s "{\"id\": \"D001\"");
        Alcotest.(check bool) "catalog has R003" true (contains s "{\"id\": \"R003\"");
        Alcotest.(check bool) "catalog has E001" true (contains s "{\"id\": \"E001\"");
        Alcotest.(check bool) "catalog has E002" true (contains s "{\"id\": \"E002\"");
        Alcotest.(check bool) "catalog has N001" true (contains s "{\"id\": \"N001\"");
        Alcotest.(check bool) "catalog has N002" true (contains s "{\"id\": \"N002\"");
        Alcotest.(check bool) "catalog has L001" true (contains s "{\"id\": \"L001\"");
        Alcotest.(check bool) "catalog has L002" true (contains s "{\"id\": \"L002\"");
        Alcotest.(check bool) "catalog has X001" true (contains s "{\"id\": \"X001\"");
        Alcotest.(check bool) "catalog has X002" true (contains s "{\"id\": \"X002\"");
        Alcotest.(check bool) "empty findings" true (contains s "\"findings\": []");
        Alcotest.(check bool) "no suppression block" false (contains s "suppressed");
        Alcotest.(check bool) "empty errors" true (contains s "\"errors\": []"));
    tc "an --only filter shrinks the checks array" (fun () ->
        let s = Lint.report_to_json ~only:[ "L001"; "X002" ] Lint.empty_report in
        Alcotest.(check bool) "kept L001" true (contains s "{\"id\": \"L001\"");
        Alcotest.(check bool) "kept X002" true (contains s "{\"id\": \"X002\"");
        Alcotest.(check bool) "dropped D001" false (contains s "{\"id\": \"D001\"");
        Alcotest.(check bool) "dropped L002" false (contains s "{\"id\": \"L002\"");
        let il = index_of s "{\"id\": \"L001\"" and ix = index_of s "{\"id\": \"X002\"" in
        Alcotest.(check bool) "catalog order preserved" true (il >= 0 && il < ix));
    tc "parse errors are part of the envelope" (fun () ->
        let r =
          {
            Lint.findings = [];
            errors = [ { Lint.path = "x.ml"; message = "boom" } ];
          }
        in
        Alcotest.(check bool)
          "one compact error object" true
          (contains (Lint.report_to_json r) "{\"path\":\"x.ml\",\"message\":\"boom\"}"));
    tc "findings are emitted sorted regardless of input order" (fun () ->
        let r =
          {
            Lint.findings = [ mk_finding ~file:"b.ml" ~line:9 "R001"; mk_finding "D001" ];
            errors = [];
          }
        in
        let s = Lint.report_to_json r in
        let ia = index_of s "\"a.ml\"" and ib = index_of s "\"b.ml\"" in
        Alcotest.(check bool) "both present" true (ia >= 0 && ib >= 0);
        Alcotest.(check bool) "a.ml before b.ml" true (ia < ib));
    tc "byte-stable across runs" (fun () ->
        let r =
          { Lint.findings = [ mk_finding "D002" ]; errors = [] }
        in
        Alcotest.(check string) "identical" (Lint.report_to_json r)
          (Lint.report_to_json r));
    tc "every catalog entry has --explain metadata" (fun () ->
        List.iter
          (fun (c : Checks.check_info) ->
            Alcotest.(check bool) c.id true
              (String.length c.detail > 40 && Checks.find_check c.id = Some c))
          Checks.catalog);
    tc "unknown check ID has no metadata" (fun () ->
        Alcotest.(check bool) "none" true (Checks.find_check "Z999" = None));
  ]

(* ---------------------------------------------------------------- N001 -- *)

let n001_tests =
  [
    tc "hashtbl fold building a list in library code" (fun () ->
        let fs =
          findings ~filename:"lib/storage/store.ml"
            "let ids t = Hashtbl.fold (fun id _ acc -> id :: acc) t []\n"
        in
        Alcotest.(check (list (pair int string)))
          "flagged at the fold"
          [ (1, "N001") ]
          (List.map (fun (f : Finding.t) -> (f.line, f.id)) fs);
        Alcotest.(check bool)
          "prescribes the sort" true
          (contains (List.hd fs).Finding.message "List.sort"));
    tc "canonicalizing sort in the same binding is the fix" (fun () ->
        check_ids "clean" [] ~filename:"lib/storage/store.ml"
          "let ids t = List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) t [])\n");
    tc "non-library code not hit" (fun () ->
        check_ids "clean" [] ~filename:"bin/tool.ml"
          "let ids t = Hashtbl.fold (fun id _ acc -> id :: acc) t []\n");
    tc "attribute suppression" (fun () ->
        check_ids "suppressed" [] ~filename:"lib/storage/store.ml"
          "let ids t = (Hashtbl.fold (fun id _ acc -> id :: acc) t [] [@lint.allow \"N001\"])\n");
  ]

(* ---------------------------------------------------------------- N002 -- *)

let n002_tests =
  [
    tc "float fold over a parallel map" (fun () ->
        let fs =
          findings ~filename:"lib/core/eval.ml"
            "let total f items =\n\
            \  List.fold_left ( +. ) 0.0 (Par.map_list ~domains:2 f items)\n"
        in
        Alcotest.(check (list (pair int string)))
          "flagged at the fold"
          [ (2, "N002") ]
          (List.map (fun (f : Finding.t) -> (f.line, f.id)) fs);
        Alcotest.(check bool)
          "prescribes the sanctioned helper" true
          (contains (List.hd fs).Finding.message "Par.sum_list"));
    tc "Par.sum_list is the sanctioned reduction" (fun () ->
        check_ids "clean" [] ~filename:"lib/core/eval.ml"
          "let total f items = Par.sum_list ~domains:2 f items\n");
    tc "float fold with no fan-out nearby is fine" (fun () ->
        check_ids "clean" [] ~filename:"lib/core/eval.ml"
          "let total xs = List.fold_left ( +. ) 0.0 xs\n");
    tc "float accumulation escaping into a parallel task" (fun () ->
        let fs =
          ids ~filename:"lib/core/eval.ml"
            "type t = { mutable sum : float }\n\
             let add t items = Par.iter (fun x -> t.sum <- t.sum +. x) items\n"
        in
        (* The same write is also a cross-domain race; both diagnoses stand. *)
        Alcotest.(check bool) "N002 at the accumulation" true
          (List.mem (2, "N002") fs);
        Alcotest.(check bool) "R001 too" true (List.mem (2, "R001") fs));
    tc "attribute suppression on the binding" (fun () ->
        check_ids "suppressed" [] ~filename:"lib/core/eval.ml"
          "let total f items =\n\
          \  List.fold_left ( +. ) 0.0 (Par.map_list ~domains:2 f items)\n\
          \  [@@lint.allow \"N002\"]\n");
  ]

(* ---------------------------------------------------------------- E001 -- *)

let e001_tests =
  [
    tc "print in library code" (fun () ->
        let fs =
          findings ~filename:"lib/core/report.ml" "let show x = print_endline x\n"
        in
        Alcotest.(check (list (pair int string)))
          "flagged at the IO site"
          [ (1, "E001") ]
          (List.map (fun (f : Finding.t) -> (f.line, f.id)) fs);
        Alcotest.(check bool)
          "names the primitive" true
          (contains (List.hd fs).Finding.message "print_endline"));
    tc "lib/obs and the persistence module are sanctioned" (fun () ->
        check_ids "obs clean" [] ~filename:"lib/obs/obs.ml"
          "let show x = print_endline x\n";
        check_ids "persist clean" [] ~filename:"lib/storage/persist.ml"
          "let save x = print_endline x\n");
    tc "bin/ and bench/ are outside the boundary" (fun () ->
        check_ids "bin clean" [] ~filename:"bin/tool.ml"
          "let show x = print_endline x\n";
        check_ids "bench clean" [] ~filename:"bench/main.ml"
          "let show x = print_endline x\n");
    tc "attribute suppression" (fun () ->
        check_ids "suppressed" [] ~filename:"lib/core/report.ml"
          "let show x = (print_endline x [@lint.allow \"E001\"])\n");
  ]

(* ---------------------------------------------------------------- E002 -- *)

let e002_tests =
  [
    tc "shared write reachable from optimize_batch" (fun () ->
        let fs =
          findings ~filename:"lib/optimizer/optimizer.ml"
            "let bump tbl k = Hashtbl.replace tbl k ()\n\
             let optimize_batch tbl stmts = List.map (fun s -> bump tbl s; s) stmts\n"
        in
        Alcotest.(check (list (pair int string)))
          "flagged at the write"
          [ (1, "E002") ]
          (List.map (fun (f : Finding.t) -> (f.line, f.id)) fs);
        Alcotest.(check bool)
          "names the batch root" true
          (contains (List.hd fs).Finding.message "optimize_batch"));
    tc "warm_stats is a sanctioned sink" (fun () ->
        check_ids "clean" [] ~filename:"lib/optimizer/optimizer.ml"
          "let warm_stats tbl = Hashtbl.replace tbl 0 ()\n\
           let optimize_batch tbl stmts = warm_stats tbl; stmts\n");
    tc "optimize_prepared is a batch root" (fun () ->
        check_ids "flagged at the write" [ (1, "E002") ] ~filename:"lib/optimizer/optimizer.ml"
          "let bump tbl k = Hashtbl.replace tbl k ()\n\
           let optimize_prepared tbl ps = Array.map (fun p -> bump tbl p; p) ps\n");
    tc "optimize_costs is a batch root" (fun () ->
        check_ids "flagged at the write" [ (1, "E002") ] ~filename:"lib/optimizer/optimizer.ml"
          "let bump tbl k = Hashtbl.replace tbl k ()\n\
           let walk tbl p = bump tbl p; 0.0\n\
           let optimize_costs tbl ps = Array.map (walk tbl) ps\n");
    tc "the optimizer's prepare is a sanctioned sink" (fun () ->
        check_ids "clean" [] ~filename:"lib/optimizer/optimizer.ml"
          "let prepare tbl s = Hashtbl.replace tbl s (); s\n\
           let optimize_batch tbl stmts = List.map (prepare tbl) stmts\n");
    tc "a prepare outside the optimizer is not" (fun () ->
        check_ids "flagged" [ (1, "E002") ] ~filename:"lib/core/benefit.ml"
          "let prepare tbl s = Hashtbl.replace tbl s (); s\n\
           let optimize_batch tbl stmts = List.map (prepare tbl) stmts\n");
    tc "no finding without a batch root" (fun () ->
        check_ids "clean" [] ~filename:"lib/optimizer/optimizer.ml"
          "let bump tbl k = Hashtbl.replace tbl k ()\nlet run tbl s = bump tbl s\n");
    tc "per-call local containers are exempt" (fun () ->
        check_ids "clean" [] ~filename:"lib/optimizer/optimizer.ml"
          "let optimize_batch stmts =\n\
          \  let q = Queue.create () in\n\
          \  List.iter (fun s -> Queue.add s q) stmts;\n\
          \  Queue.length q\n");
    tc "attribute suppression at the write site" (fun () ->
        check_ids "suppressed" [] ~filename:"lib/optimizer/optimizer.ml"
          "let bump tbl k = (Hashtbl.replace tbl k () [@lint.allow \"E002\"])\n\
           let optimize_batch tbl stmts = List.map (fun s -> bump tbl s; s) stmts\n");
    tc "a nested let's attribute suppresses the write inside it" (fun () ->
        check_ids "suppressed" [] ~filename:"lib/optimizer/optimizer.ml"
          "let optimize_batch tbl stmts =\n\
          \  let () = Hashtbl.replace tbl 0 () [@@lint.allow \"E002\"] in\n\
          \  stmts\n");
  ]

(* ------------------------------------------- sites outside a binding -- *)

(* A functor body and a toplevel [;;] expression are not call-graph nodes;
   the unit-local checks still reach every site in them. *)
let site_tests =
  [
    tc "D002, D004, H002 and R003 inside a functor body" (fun () ->
        check_ids "all four fire" ~filename:"lib/core/f.ml"
          [ (2, "D002"); (3, "D004"); (4, "H002"); (5, "R003") ]
          "module F (X : sig end) = struct\n\
          \  let a () = Sys.time ()\n\
          \  let b () = Unix.gettimeofday ()\n\
          \  let c () = failwith \"x\"\n\
          \  let d c = Atomic.set c (Atomic.get c + 1)\n\
           end\n");
    tc "D002, D004, H002 and R003 inside toplevel ;; expressions" (fun () ->
        check_ids "all four fire" ~filename:"lib/core/f.ml"
          [ (1, "D002"); (2, "D004"); (3, "H002"); (4, "R003") ]
          ";; ignore (Sys.time ())\n\
           ;; ignore (Unix.gettimeofday ())\n\
           ;; if Sys.argv = [||] then failwith \"y\"\n\
           ;; let c = Atomic.make 0 in Atomic.set c (Atomic.get c + 1)\n");
    tc "closure binder shadowing a raw global" (fun () ->
        (* [run]'s task binds [counter] itself, so only [acc] (a captured
           raw local) and [total] (a raw global) are findings there; in
           [spawn] the local [total] shadows the global and is a capture,
           while [counter] is the global. *)
        let fs =
          findings
            "let counter = ref 0\n\
             let total = ref 0\n\
             let run items =\n\
            \  let acc = ref 0 in\n\
            \  Par.iter (fun counter -> acc := !acc + counter; total := !total + counter) items\n\
             let spawn items =\n\
            \  let total = ref 0 in\n\
            \  Par.iter (fun x -> total := x; counter := x) items\n"
        in
        let what (f : Finding.t) =
          if contains f.message "captures mutable local acc" then "local acc"
          else if contains f.message "captures mutable local total" then "local total"
          else if contains f.message "mutable state total" then "global total"
          else if contains f.message "mutable state counter" then "global counter"
          else f.message
        in
        Alcotest.(check (list (triple int string string)))
          "captures and globals"
          [
            (1, "D001", ""); (2, "D001", "");
            (5, "R001", "local acc"); (5, "R001", "local acc");
            (5, "R001", "global total"); (5, "R001", "global total");
            (8, "R001", "local total"); (8, "R001", "global counter");
          ]
          (List.map
             (fun (f : Finding.t) ->
               (f.line, f.id, if f.id = "R001" then what f else ""))
             fs));
  ]

(* -------------------------------------------------- effect summaries ---- *)

let effects_tests =
  [
    tc "golden per-binding summaries for a benefit-like slice" (fun () ->
        with_temp_project
          [
            ( "slice.ml",
              "let log s = print_endline s\n\
               let choose tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []\n\
               let total f xs = List.fold_left ( +. ) 0.0 (List.map f xs)\n\
               let install c = Catalog.create_index c []\n\
               let run c tbl = log \"go\"; install c; List.length (choose tbl)\n" );
          ]
          (fun dir ->
            let dump, errs = Lint.effects_dump [ dir ] in
            Alcotest.(check (list string))
              "no errors" []
              (List.map (fun (e : Lint.error) -> e.message) errs);
            let p = Filename.concat dir "slice.ml" in
            Alcotest.(check string) "exact summary dump"
              (String.concat ""
                 [
                   p ^ " choose: local=OrderDependent total=OrderDependent\n";
                   p ^ " install: local=WritesMutable total=WritesMutable\n";
                   p ^ " log: local=PerformsIO total=PerformsIO\n";
                   p ^ " run: local=Pure total=WritesMutable,PerformsIO,OrderDependent\n";
                   p ^ " total: local=Pure total=Pure\n";
                 ])
              dump));
    tc "dump is byte-deterministic" (fun () ->
        with_temp_project
          [
            ("a.ml", "let f () = B.g ()\n");
            ("b.ml", "let g () = print_string \"x\"\nlet h t = Hashtbl.clear t\n");
          ]
          (fun dir ->
            let d1, _ = Lint.effects_dump [ dir ] in
            let d2, _ = Lint.effects_dump [ dir ] in
            Alcotest.(check string) "identical" d1 d2));
    tc "IO propagates across units" (fun () ->
        with_temp_project
          [
            ("sink.ml", "let log s = print_endline s\n");
            ("driver.ml", "let run () = Sink.log \"x\"\n");
          ]
          (fun dir ->
            let dump, _ = Lint.effects_dump [ dir ] in
            Alcotest.(check bool)
              "driver picks up the callee's IO" true
              (contains dump "driver.ml run: local=Pure total=PerformsIO")));
    tc "order-dependence propagates through cross-unit recursion" (fun () ->
        with_temp_project
          [
            ("store.ml", "let ids tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []\n");
            ( "top.ml",
              "let rec pick tbl n = if n = 0 then Store.ids tbl else pick tbl (n - 1)\n"
            );
          ]
          (fun dir ->
            let dump, _ = Lint.effects_dump [ dir ] in
            Alcotest.(check bool)
              "fixpoint reaches through the recursive binding" true
              (contains dump "top.ml pick: local=Pure total=OrderDependent")));
  ]

let suites =
  [
    ("lint.d001", d001_tests);
    ("lint.d002", d002_tests);
    ("lint.d003", d003_tests);
    ("lint.d004", d004_tests);
    ("lint.h001", h001_tests);
    ("lint.h002", h002_tests);
    ("lint.callgraph", callgraph_tests);
    ("lint.r001", r001_tests);
    ("lint.r002", r002_tests);
    ("lint.r003", r003_tests);
    ("lint.l001", l001_tests);
    ("lint.l002", l002_tests);
    ("lint.x001", x001_tests);
    ("lint.x002", x002_tests);
    ("lint.dataflow_fixture", dataflow_fixture_tests);
    ("lint.dataflow_qcheck", dataflow_qcheck_tests);
    ("lint.engine_qcheck", engine_qcheck_tests);
    ("lint.select", select_tests);
    ("lint.n001", n001_tests);
    ("lint.n002", n002_tests);
    ("lint.e001", e001_tests);
    ("lint.e002", e002_tests);
    ("lint.effects", effects_tests);
    ("lint.sites", site_tests);
    ("lint.format", format_tests);
    ("lint.json_report", json_report_tests);
    ("lint.self_check", self_check_tests);
  ]
