(* Tests for histograms and their effect on selectivity estimation. *)

module H = Xia_storage.Histogram
module Sel = Xia_optimizer.Selectivity
module Cat = Xia_index.Catalog
module DS = Xia_storage.Doc_store
module D = Xia_index.Index_def
module R = Xia_query.Rewriter

let tc name f = Alcotest.test_case name `Quick f

let uniform_sample = List.init 1000 (fun i -> float_of_int i)

let histogram_tests =
  [
    tc "create on empty sample is None" (fun () ->
        Alcotest.(check bool) "none" true (H.create [] = None));
    tc "create on constant sample is None" (fun () ->
        Alcotest.(check bool) "none" true (H.create [ 5.0; 5.0; 5.0 ] = None));
    tc "bounds and totals" (fun () ->
        let h = Option.get (H.create uniform_sample) in
        let lo, hi = H.bounds h in
        Alcotest.(check (float 0.001)) "lo" 0.0 lo;
        Alcotest.(check (float 0.001)) "hi" 999.0 hi;
        Alcotest.(check int) "total" 1000 (H.total h);
        Alcotest.(check int) "buckets" H.buckets (H.bucket_count h));
    tc "fraction_below on uniform data" (fun () ->
        let h = Option.get (H.create uniform_sample) in
        Alcotest.(check (float 0.02)) "half" 0.5 (H.fraction_below h 499.5);
        Alcotest.(check (float 0.02)) "tenth" 0.1 (H.fraction_below h 99.9);
        Alcotest.(check (float 0.001)) "below lo" 0.0 (H.fraction_below h (-1.0));
        Alcotest.(check (float 0.001)) "above hi" 1.0 (H.fraction_below h 2000.0));
    tc "fraction_between" (fun () ->
        let h = Option.get (H.create uniform_sample) in
        Alcotest.(check (float 0.03)) "quarter" 0.25 (H.fraction_between h 250.0 500.0);
        Alcotest.(check (float 0.001)) "empty" 0.0 (H.fraction_between h 500.0 500.0));
    tc "skewed distribution is captured" (fun () ->
        (* 90% of mass at the low end. *)
        let sample =
          List.init 900 (fun i -> float_of_int (i mod 10))
          @ List.init 100 (fun i -> 10.0 +. float_of_int i)
        in
        let h = Option.get (H.create sample) in
        (* value < 10 covers 90% of values but only ~9% of the range;
           interpolation within the straddled bucket costs some precision *)
        Alcotest.(check bool) "skew detected" true (H.fraction_below h 10.0 > 0.7));
    tc "point_density" (fun () ->
        let h = Option.get (H.create uniform_sample) in
        Alcotest.(check bool) "roughly 1/buckets" true
          (let d = H.point_density h 500.0 in
           d > 0.03 && d < 0.1);
        Alcotest.(check (float 0.0001)) "outside" 0.0 (H.point_density h 5000.0));
  ]

(* A table with a skewed numeric path: 90% of values uniform in [0,100), a
   sparse tail up to 1000 — skew coarser than the histogram bucket width, so
   equi-width buckets capture it. *)
let skewed_catalog () =
  let catalog = Cat.create () in
  let store = DS.create "T" in
  for i = 0 to 999 do
    let v =
      if i mod 10 < 9 then float_of_int (i mod 100)
      else float_of_int (100 + (i mod 900))
    in
    ignore (DS.insert store (Helpers.xml (Printf.sprintf "<a><v>%.1f</v></a>" v)))
  done;
  Cat.add_table catalog store;
  ignore (Cat.runstats catalog "T");
  catalog

let with_histograms flag f =
  let saved = !Sel.use_histograms in
  Sel.use_histograms := flag;
  Fun.protect ~finally:(fun () -> Sel.use_histograms := saved) f

let selectivity_tests =
  [
    tc "runstats attaches histograms" (fun () ->
        let catalog = skewed_catalog () in
        let stats = Cat.stats catalog "T" in
        match
          List.find_opt
            (fun info -> Xia_storage.Path_stats.key info = "a/v")
            (Array.to_list stats.infos)
        with
        | Some info -> Alcotest.(check bool) "present" true (info.histogram <> None)
        | None -> Alcotest.fail "path missing");
    tc "histogram beats uniform assumption on skewed data" (fun () ->
        let catalog = skewed_catalog () in
        let stats = Cat.stats catalog "T" in
        let cond = R.Ccompare (Xia_xpath.Ast.Lt, Xia_xpath.Ast.Number_lit 100.0) in
        let est flag =
          with_histograms flag (fun () ->
              (Sel.lookup_estimate stats (Helpers.pattern_id "/a/v") D.Ddouble cond)
                .Sel.entries_matched)
        in
        (* truth: 900 of 1000 values are < 100 *)
        let with_hist = est true and without = est false in
        Alcotest.(check bool) "hist close" true (Float.abs (with_hist -. 900.0) < 150.0);
        Alcotest.(check bool) "uniform far" true (without < 300.0));
    tc "optimizer picks better plans with histograms" (fun () ->
        (* On the skewed table, "v > 900" is rare (true sel ~1%): the uniform
           model estimates ~10%; both should still index, but estimated rows
           must differ. *)
        let catalog = skewed_catalog () in
        let stmt = Helpers.statement "for $x in T/a where $x/v < 100 return $x" in
        let docs flag =
          with_histograms flag (fun () ->
              match (Xia_optimizer.Optimizer.optimize catalog stmt).Xia_optimizer.Plan.bindings with
              | [ b ] -> b.Xia_optimizer.Plan.est_docs
              | _ -> Alcotest.fail "one binding expected")
        in
        Alcotest.(check bool) "hist estimates many" true (docs true > 700.0);
        Alcotest.(check bool) "uniform underestimates" true (docs false < 400.0));
  ]

let suites =
  [ ("histogram.core", histogram_tests); ("histogram.selectivity", selectivity_tests) ]
