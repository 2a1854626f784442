(* The xia_lint static analyzer (lib/analysis): every check ID gets a
   positive hit, a negative non-hit and a suppression path; plus the
   self-check that the repository's own lib/ is lint-clean and a mutant
   corpus on which each check must fire. *)

module Lint = Xia_analysis.Lint
module Checks = Xia_analysis.Checks
module Finding = Xia_analysis.Finding
module Suppress = Xia_analysis.Suppress

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
        Alcotest.(check string)
          "one object, escaped"
          "{\"file\":\"a.ml\",\"line\":3,\"col\":2,\"id\":\"D001\",\"message\":\"say \\\"hi\\\"\"}"
          (Finding.to_json
             (Finding.make ~file:"a.ml" ~line:3 ~col:2 ~id:"D001" ~message:"say \"hi\"")));
    tc "syntax errors are reported, not raised" (fun () ->
        match Lint.lint_source ~filename:"bad.ml" "let let let" with
        | Ok _ -> Alcotest.fail "expected a parse error"
        | Error (e : Lint.error) -> Alcotest.(check string) "path" "bad.ml" e.path);
  ]

(* ------------------------------------------------------ repo self-check -- *)

(* The repository's lib/, which test/dune copies into the build tree next
   to this executable's directory, so the suite runs from any working
   directory. *)
let repo_lib = Filename.concat (Filename.dirname Sys.executable_name) "../lib"

(* One whole-program lint of lib/, shared by the self-check cases. *)
let lib_report = lazy (Lint.lint_paths [ repo_lib ])

let self_check_tests =
  [
    tc "repo lib/ is lint-clean" (fun () ->
        let report = Lazy.force lib_report in
        Alcotest.(check (list string))
          "no analysis errors" []
          (List.map (fun (e : Lint.error) -> e.path ^ ": " ^ e.message) report.errors);
        Alcotest.(check (list string))
          "no findings" []
          (List.map Finding.to_string report.findings));
    tc "repo lib/ is R-clean without any suppression" (fun () ->
        (* R003 passes on lib/ on its own merits: no attribute hides an
           R-series finding. *)
        let report = Lazy.force lib_report in
        Alcotest.(check (list string))
          "no R-series findings" []
          (List.filter_map
             (fun (f : Finding.t) ->
               if String.length f.id > 0 && f.id.[0] = 'R' then
                 Some (Finding.to_string f)
               else None)
             report.findings));
    tc "repo lib/ is X-clean without any suppression" (fun () ->
        (* Same bar for X001: every save/restore in lib/ restores in a
           Fun.protect finalizer on its own merits — no attribute hides an
           X-series finding. *)
        let report = Lazy.force lib_report in
        Alcotest.(check (list string))
          "no X-series findings" []
          (List.filter_map
             (fun (f : Finding.t) ->
               if String.length f.id > 0 && f.id.[0] = 'X' then Some (Finding.to_string f)
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
          \  r\n";
        (* A may-raise call between the save and the Fun.protect. *)
        check_ids "call before the protect"
          [ (3, "X001") ]
          "let depth = ref 0 [@@lint.allow \"D001\"]\n\
           let deeper g f =\n\
          \  let saved = !depth in\n\
          \  depth := 1;\n\
          \  g ();\n\
          \  Fun.protect ~finally:(fun () -> depth := saved) f\n");
    tc "restore inside Fun.protect ~finally discharges" (fun () ->
        check_ids "clean" []
          "let flag = Atomic.make false\n\
           let with_flag f =\n\
          \  let saved = Atomic.get flag in\n\
          \  Atomic.set flag true;\n\
          \  Fun.protect ~finally:(fun () -> Atomic.set flag saved) f\n";
        check_ids "ref restored in the finalizer" []
          "let depth = ref 0 [@@lint.allow \"D001\"]\n\
           let deeper f =\n\
          \  let saved = !depth in\n\
          \  depth := 1;\n\
          \  Fun.protect (fun () -> f saved) ~finally:(fun () -> depth := saved)\n";
        (* Only a finalizer that does nothing but the restore discharges:
           a call before the restore, or an opaque finalizer, does not. *)
        check_ids "finalizer calls before the restore"
          [ (3, "X001") ]
          "let flag = Atomic.make false\n\
           let with_flag log f =\n\
          \  let saved = Atomic.get flag in\n\
          \  Atomic.set flag true;\n\
          \  Fun.protect ~finally:(fun () -> log (); Atomic.set flag saved) f\n";
        check_ids "opaque finalizer"
          [ (3, "X001") ]
          "let flag = Atomic.make false\n\
           let with_flag f =\n\
          \  let saved = Atomic.get flag in\n\
          \  let restore_fn () = Atomic.set flag saved in\n\
          \  Atomic.set flag true;\n\
          \  Fun.protect ~finally:restore_fn f\n");
    tc "a read with no matching restore is not a save" (fun () ->
        check_ids "clean" []
          "let flag = Atomic.make false\n\
           let peek f =\n\
          \  let v = Atomic.get flag in\n\
          \  f ();\n\
          \  v\n");
    tc "explicit raise between save and restore" (fun () ->
        check_ids "flagged"
          [ (3, "X001") ]
          "let flag = Atomic.make false\n\
           let run b =\n\
          \  let saved = Atomic.get flag in\n\
          \  if b then raise Exit;\n\
          \  Atomic.set flag saved\n");
    tc "a closure inside a finalizer is judged once" (fun () ->
        (* The finalizer is walked from both ends of the body; its closure
           must still be queued, analyzed and reported once. *)
        check_ids "one finding"
          [ (4, "X001") ]
          "let flag = Atomic.make false\n\
           let run g f =\n\
          \  Fun.protect\n\
          \    ~finally:(fun () -> g (fun () -> let saved = Atomic.get flag in f (); Atomic.set flag saved))\n\
          \    (fun () -> ())\n");
    tc "only total primitives between save and restore" (fun () ->
        (* Flagged: only the Fun.protect shape discharges a save, even
           where nothing between it and the restore can raise. *)
        check_ids "flagged"
          [ (4, "X001") ]
          "let flag = Atomic.make false\n\
           let n = Atomic.make 0\n\
           let bump () =\n\
          \  let saved = Atomic.get flag in\n\
          \  Atomic.incr n;\n\
          \  Atomic.set flag saved\n");
    tc "catch-all try absorbs the exceptional path" (fun () ->
        (* Flagged: a catch-all [try] is not the Fun.protect shape. *)
        check_ids "flagged"
          [ (3, "X001") ]
          "let flag = Atomic.make false\n\
           let run f =\n\
          \  let saved = Atomic.get flag in\n\
          \  (try f () with _ -> ());\n\
          \  Atomic.set flag saved\n");
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

(* ------------------------------------ the deliberately leaking fixture -- *)

let dataflow_fixture_tests =
  [
    tc "one leaking function trips all four checks" (fun () ->
        check_ids "all four"
          [ (3, "X001"); (4, "R003"); (5, "D002"); (7, "H002") ]
          "let flag = Atomic.make 0\n\
           let leak f =\n\
          \  let saved = Atomic.get flag in\n\
          \  Atomic.set flag (Atomic.get flag + 1);\n\
          \  let t0 = Sys.time () in\n\
          \  let r = f t0 in\n\
          \  if r < 0 then failwith \"negative\";\n\
          \  Atomic.set flag saved;\n\
          \  r\n");
    tc "each finding is individually suppressible" (fun () ->
        check_ids "all suppressed" []
          "let flag = Atomic.make 0\n\
           let leak f =\n\
          \  let saved = (Atomic.get flag [@lint.allow \"X001\"]) in\n\
          \  (Atomic.set flag (Atomic.get flag + 1) [@lint.allow \"R003\"]);\n\
          \  let t0 = (Sys.time () [@lint.allow \"D002\"]) in\n\
          \  let r = f t0 in\n\
          \  if r < 0 then (failwith \"negative\" [@lint.allow \"H002\"]);\n\
          \  Atomic.set flag saved;\n\
          \  r\n");
  ]

(* ---------------------------------------------- versioned JSON envelope -- *)

let empty_report = { Lint.findings = []; errors = [] }

let mk_finding ?(file = "a.ml") ?(line = 1) id =
  Finding.make ~file ~line ~col:0 ~id ~message:"m"

let json_report_tests =
  [
    tc "schema version and check catalog header" (fun () ->
        let s = Lint.report_to_json empty_report in
        Alcotest.(check bool) "version" true (contains s "\"schema_version\": 5");
        Alcotest.(check bool) "catalog has D001" true (contains s "{\"id\": \"D001\"");
        Alcotest.(check bool) "catalog has R003" true (contains s "{\"id\": \"R003\"");
        Alcotest.(check bool) "catalog has E001" true (contains s "{\"id\": \"E001\"");
        Alcotest.(check bool) "catalog has N001" true (contains s "{\"id\": \"N001\"");
        Alcotest.(check bool) "catalog has X001" true (contains s "{\"id\": \"X001\"");
        List.iter
          (fun id ->
            Alcotest.(check bool) ("catalog lacks " ^ id) false
              (contains s (Printf.sprintf "{\"id\": \"%s\"" id)))
          [ "E002"; "L001"; "L002"; "N002"; "R001"; "R002"; "X002" ];
        Alcotest.(check bool) "empty findings" true (contains s "\"findings\": []");
        Alcotest.(check bool) "no suppression block" false (contains s "suppressed");
        Alcotest.(check bool) "empty errors" true (contains s "\"errors\": []"));
    tc "parse errors are part of the envelope" (fun () ->
        let r =
          {
            empty_report with
            errors = [ { Lint.path = "x.ml"; message = "boom" } ];
          }
        in
        Alcotest.(check bool)
          "one compact error object" true
          (contains (Lint.report_to_json r) "{\"path\":\"x.ml\",\"message\":\"boom\"}"));
    tc "findings are emitted sorted regardless of input order" (fun () ->
        let r =
          {
            empty_report with
            findings = [ mk_finding ~file:"b.ml" ~line:9 "E001"; mk_finding "D001" ];
          }
        in
        let s = Lint.report_to_json r in
        let ia = index_of s "\"a.ml\"" and ib = index_of s "\"b.ml\"" in
        Alcotest.(check bool) "both present" true (ia >= 0 && ib >= 0);
        Alcotest.(check bool) "a.ml before b.ml" true (ia < ib));
    tc "byte-stable across runs" (fun () ->
        let r =
          { empty_report with findings = [ mk_finding "D002" ] }
        in
        Alcotest.(check string) "identical" (Lint.report_to_json r)
          (Lint.report_to_json r));
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
          (contains (List.hd fs).Finding.message "print_endline");
        check_ids "a shadowed f is judged by its own sites" [ (1, "E001") ]
          ~filename:"lib/core/report.ml" "let f () = print_endline \"a\"\nlet f () = 1\n";
        check_ids "a shadowing f is reported once" [ (2, "E001") ]
          ~filename:"lib/core/report.ml" "let f () = 1\nlet f () = print_endline \"a\"\n");
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
    tc "a local binder named like an IO function is not flagged" (fun () ->
        (* [run]'s closure and [spawn]'s [let] bind [print_string]
           themselves; [spawn]'s [print_endline] is the builtin. *)
        check_ids "only the builtin" [ (4, "E001") ] ~filename:"lib/core/report.ml"
          "let run items = List.iter (fun print_string -> print_string \"a\") items\n\
           let spawn items =\n\
          \  let print_string = ignore in\n\
          \  List.iter (fun x -> print_string x; print_endline \"b\") items\n");
    tc "a unit-level binding named like an IO function is not flagged" (fun () ->
        check_ids "the unit's own input" [] ~filename:"lib/core/report.ml"
          "let read ic = input ic (Bytes.create 4) 0 4\n\
           let input ic buf pos len = ignore (ic, buf, pos); len\n");
    tc "a nested module named like an IO module is not flagged" (fun () ->
        check_ids "the unit's own Out_channel" [] ~filename:"lib/core/report.ml"
          "module Out_channel = struct let output_string _ _ = () end\n\
           let show oc s = Out_channel.output_string oc s\n");
    tc "an IO path next to the unit's own bindings is flagged" (fun () ->
        check_ids "only Printf.eprintf" [ (3, "E001") ] ~filename:"lib/core/report.ml"
          "let input ic = ic\n\
           module Out_channel = struct let output_string _ _ = () end\n\
           let warn s = Printf.eprintf \"%s\" (input s); Out_channel.output_string () s\n");
  ]

(* ------------------------------------------- sites outside a binding -- *)

(* A functor body and a toplevel [;;] expression are not module-level
   bindings; the unit-local checks still reach every site in them. *)
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
  ]

(* ------------------------------------------------------ mutant corpus -- *)

(* One or more realistic regressions per check, each an edit of a
   file under lib/: [snippet] replaced [by] another text, or, when both
   are empty, the file deleted.  [id] must fire in [at], inside the
   replacement when [at] is the edited file, and no other check may fire
   inside the replacement.  DESIGN.md §5h records, per mutant, which
   checks fire and whether the build or another test catches it. *)
type mutant = {
  id : string;
  what : string;
  file : string;
  snippet : string;
  by : string;
  at : string;
}

let mutant ?at id what file snippet by =
  { id; what; file; snippet; by; at = Option.value at ~default:file }

let mutants =
  [
    mutant "D001" "toplevel dedup table" "optimizer/optimizer.ml"
      {|let enumerate_indexes (stmt : Ast.statement) =
  Atomic.incr counters.enumerate_calls;
  let elem = Pattern.id Pattern.universal and attr = Pattern.id Pattern.universal_attr in
  let tables = Ast.tables stmt in
  let seen = Hashtbl.create 16 in
|}
      {|let seen = Hashtbl.create 16

let enumerate_indexes (stmt : Ast.statement) =
  Hashtbl.reset seen;
  Atomic.incr counters.enumerate_calls;
  let elem = Pattern.id Pattern.universal and attr = Pattern.id Pattern.universal_attr in
  let tables = Ast.tables stmt in
|};
    mutant "D002" "Sys.time in Executor.run_plan" "optimizer/executor.ml"
      {|  let t0 = Xia_obs.Obs.now_s () in
  let where|}
      {|  let t0 = Sys.time () in
  let where|};
    mutant "D004" "gettimeofday in Optimizer.optimize" "optimizer/optimizer.ml"
      {|    let t0 = Xia_obs.Obs.now_s () in
    let result = run () in|}
      {|    let t0 = Unix.gettimeofday () in
    let result = run () in|};
    mutant "E001" "eprintf in Workload_summary.compress" "core/workload_summary.ml"
      {|      statements = n; compressed = true }
  in
|}
      {|      statements = n; compressed = true }
  in
  Printf.eprintf "summary: %d clusters\n%!" (cluster_count t);
|};
    mutant ~at:"query/printer.ml" "H001" "deleted Query printer interface" "query/printer.mli" "" "";
    mutant "H002" "unnoted failwith in Selectivity" "optimizer/selectivity.ml"
      {|| Xp.Gt | Xp.Ge -> 1.0 -. below
              (* lint: range branch — Eq/Ne handled by the equality arm above *)
              | Xp.Eq | Xp.Ne -> assert false|}
      {|| Xp.Gt | Xp.Ge -> 1.0 -. below
              | Xp.Eq | Xp.Ne -> failwith "Selectivity: Eq/Ne in a range branch"|};
    mutant "N001" "dropped sort in Catalog.table_names" "index/catalog.ml"
      {|  List.sort String.compare (Hashtbl.fold (fun name _ acc -> name :: acc) t [])|}
      {|  Hashtbl.fold (fun name _ acc -> name :: acc) t []|};
    mutant "N001" "clusters in hash order in Workload_summary.compress" "core/workload_summary.ml"
      {|  let clusters = List.rev !order in
|}
      {|  let clusters = Hashtbl.fold (fun _ acc l -> acc :: l) by_key [] in
|};
    mutant "N001" "floor groups in hash order in Benefit.bounds" "core/benefit.ml"
      {|        (List.rev !order);
      let gaps|}
      {|        (Hashtbl.fold (fun key _ acc -> key :: acc) groups []);
      let gaps|};
    mutant "R003" "read-modify-write of the optimizer call counter" "optimizer/optimizer.ml"
      {|    Atomic.incr counters.optimize_calls;
    ignore (Atomic.fetch_and_add counters.batch_setup_saved (n - 1));|}
      {|    Atomic.set counters.optimize_calls (Atomic.get counters.optimize_calls + 1);
    ignore (Atomic.fetch_and_add counters.batch_setup_saved (n - 1));|};
    mutant "X001" "dropped Fun.protect in Obs.with_enabled" "obs/obs.ml"
      {|  let saved = !enabled in
  enabled := v;
  Fun.protect ~finally:(fun () -> enabled := saved) f|}
      {|  let saved = !enabled in
  enabled := v;
  let r = f () in
  enabled := saved;
  r|};
  ]

(* Offset of [needle] in [s] at or after [from]. *)
let rec find_from s needle from =
  if from + String.length needle > String.length s then None
  else if String.sub s from (String.length needle) = needle then Some from
  else find_from s needle (from + 1)

(* The one occurrence of [needle] in [s]: an edit that no longer matches
   the source, or matches twice, fails the suite. *)
let unique s needle what =
  match find_from s needle 0 with
  | Some i when find_from s needle (i + 1) = None -> i
  | _ -> Alcotest.failf "mutant %S: its text is not in its file exactly once" what

let line_at s i = List.length (String.split_on_char '\n' (String.sub s 0 i))

(* Copies the sources only: the build's dot directories of compiled
   objects are skipped, as the linter skips them. *)
let rec copy_tree src dst =
  if Sys.is_directory src then begin
    Sys.mkdir dst 0o755;
    Array.iter
      (fun e -> if e.[0] <> '.' then copy_tree (Filename.concat src e) (Filename.concat dst e))
      (Sys.readdir src)
  end
  else
    Out_channel.with_open_bin dst (fun oc ->
        output_string oc (In_channel.with_open_bin src In_channel.input_all))

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let mutant_tests =
  [
    tc "every mutant's check fires on one mutated copy of lib/" (fun () ->
        let dir = Filename.temp_dir "xia_lint_mutants" "" in
        let root = Filename.concat dir "lib" in
        Fun.protect
          ~finally:(fun () -> remove_tree dir)
          (fun () ->
            copy_tree repo_lib root;
            let read m = In_channel.with_open_bin (Filename.concat root m.file) In_channel.input_all in
            List.iter
              (fun m ->
                let path = Filename.concat root m.file in
                if m.snippet = "" then Sys.remove path
                else
                  let s = read m in
                  let i = unique s m.snippet m.what and n = String.length m.snippet in
                  Out_channel.with_open_bin path (fun oc ->
                      output_string oc
                        (String.sub s 0 i ^ m.by ^ String.sub s (i + n) (String.length s - i - n))))
              mutants;
            let report = Lint.lint_paths [ root ] in
            List.iter
              (fun m ->
                let edit =
                  if m.snippet = "" then None
                  else
                    let s = read m in
                    let i = unique s m.by m.what in
                    Some (line_at s i, line_at s (i + String.length m.by))
                in
                let in_edit (f : Finding.t) =
                  match edit with
                  | Some (first, last) ->
                      f.file = Filename.concat root m.file && f.line >= first && f.line <= last
                  | None -> false
                in
                Alcotest.(check bool)
                  (Printf.sprintf "%s fires on %s" m.id m.what)
                  true
                  (List.exists
                     (fun (f : Finding.t) ->
                       f.id = m.id
                       && f.file = Filename.concat root m.at
                       && (m.snippet = "" || m.at <> m.file || in_edit f))
                     report.findings);
                Alcotest.(check (list string))
                  (Printf.sprintf "only %s fires inside %s" m.id m.what)
                  []
                  (List.filter_map
                     (fun (f : Finding.t) ->
                       if in_edit f && f.id <> m.id then Some (Finding.to_string f) else None)
                     report.findings))
              mutants));
  ]

let suites =
  [
    ("lint.d001", d001_tests);
    ("lint.d002", d002_tests);
    ("lint.d004", d004_tests);
    ("lint.h001", h001_tests);
    ("lint.h002", h002_tests);
    ("lint.r003", r003_tests);
    ("lint.x001", x001_tests);
    ("lint.dataflow_fixture", dataflow_fixture_tests);
    ("lint.n001", n001_tests);
    ("lint.e001", e001_tests);
    ("lint.sites", site_tests);
    ("lint.format", format_tests);
    ("lint.json_report", json_report_tests);
    ("lint.self_check", self_check_tests);
    ("lint.mutants", mutant_tests);
  ]
