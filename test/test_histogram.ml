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

(* The bucket counts, read off the printed histogram "hist[lo..hi: c,c,...]". *)
let counts h =
  let s = Format.asprintf "%a" H.pp h in
  let from = String.index s ':' + 2 in
  List.map int_of_string (String.split_on_char ',' (String.sub s from (String.length s - from - 1)))

(* Samples mixing nan, infinities and finite values; small integers repeat,
   so some samples hold fewer than two distinct finite values. *)
let mixed_sample =
  QCheck.make ~print:QCheck.Print.(list float)
    QCheck.Gen.(
      list_size (int_range 0 30)
        (frequency
           [
             (1, return nan); (1, return infinity); (1, return neg_infinity);
             (2, map float_of_int (int_range (-2) 2)); (2, float_range (-1e6) 1e6);
           ]))

let stats_of docs =
  let store = DS.create "N" in
  List.iter (fun d -> ignore (DS.insert store (Helpers.xml d))) docs;
  Xia_storage.Path_stats.collect store

let path_at stats key =
  match
    List.find_opt
      (fun info -> Xia_storage.Path_stats.key info = key)
      (Array.to_list stats.Xia_storage.Path_stats.infos)
  with
  | Some info -> info
  | None -> Alcotest.failf "path %s missing" key

let histogram_at stats key = (path_at stats key).histogram

let non_finite_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:500
         ~name:"create = of_array over finite values only, with finite bounds and counts summing to total"
         mixed_sample (fun sample ->
           let finite = List.filter Float.is_finite sample in
           match (H.create sample, H.of_array (Array.of_list sample)) with
           | None, None -> List.length (List.sort_uniq Float.compare finite) < 2
           | Some h, Some g ->
               let lo, hi = H.bounds h in
               Format.asprintf "%a" H.pp h = Format.asprintf "%a" H.pp g
               && H.total h = H.total g
               && Float.is_finite lo && Float.is_finite hi
               && lo = List.fold_left Float.min infinity finite
               && hi = List.fold_left Float.max neg_infinity finite
               && H.total h = List.length finite
               && List.fold_left ( + ) 0 (counts h) = H.total h
           | _ -> false));
    tc "RUNSTATS builds no histogram from nan, inf and one finite value" (fun () ->
        let found = "<a><b>nan</b><b>3</b><b>inf</b></a>" in
        Alcotest.(check bool) "none" true (histogram_at (stats_of [ found ]) "a/b" = None);
        match histogram_at (stats_of [ found; "<a><b>5</b><b>-inf</b></a>" ]) "a/b" with
        | Some h ->
            Alcotest.(check (pair (float 0.) (float 0.))) "finite bounds" (3., 5.) (H.bounds h);
            Alcotest.(check int) "finite count" 2 (H.total h);
            Alcotest.(check (list int)) "counts" [ 1; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 1 ]
              (counts h)
        | None -> Alcotest.fail "no histogram over 3 and 5");
    tc "a sample holding 0 and -0 has the same bounds in either order" (fun () ->
        let bits sample =
          let lo, hi = H.bounds (Option.get (H.create sample)) in
          (Int64.bits_of_float lo, Int64.bits_of_float hi)
        in
        let same label a b =
          Alcotest.(check (pair int64 int64)) label (bits a) (bits b)
        in
        same "lower" [ 0.; -0.; 5. ] [ -0.; 0.; 5. ];
        same "upper" [ -5.; 0.; -0. ] [ -5.; -0.; 0. ];
        Alcotest.(check bool) "lower is -0" true
          (Float.sign_bit (fst (H.bounds (Option.get (H.create [ 0.; -0.; 5. ])))));
        Alcotest.(check bool) "upper is +0" false
          (Float.sign_bit (snd (H.bounds (Option.get (H.create [ -5.; -0.; 0. ]))))));
    tc "a sample spanning more than max_float spreads over the buckets" (fun () ->
        (* hi - lo overflows to inf here; each bucket is still 1e308 / 8 wide. *)
        let sample = [ -1e308; 0.; 1.; 2.; 1e308 ] in
        let h = Option.get (H.create sample) in
        let lo, hi = H.bounds h in
        Alcotest.(check bool) "finite bounds" true (Float.is_finite lo && Float.is_finite hi);
        Alcotest.(check bool) "no bucket holds every value" true
          (List.for_all (fun c -> c < H.total h) (counts h));
        Alcotest.(check (list int)) "counts" [ 1; 0; 0; 0; 0; 0; 0; 0; 3; 0; 0; 0; 0; 0; 0; 1 ]
          (counts h);
        Alcotest.(check bool) "fraction below 1e307 is not 0" true
          (H.fraction_below h 1e307 > 0.0);
        Alcotest.(check (float 1e-9)) "density at 0" 0.6 (H.point_density h 0.0);
        Alcotest.(check string) "of_array agrees"
          (Format.asprintf "%a" H.pp h)
          (Format.asprintf "%a" H.pp (Option.get (H.of_array (Array.of_list sample)))));
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

(* The skewed table's statistics and its numeric path. *)
let skewed_path catalog =
  let stats = Cat.stats catalog "T" in
  (stats, path_at stats "a/v")

(* The uniform-range model's fraction of a path's values below [x], from
   its bounds alone. *)
let uniform_below (v : Xia_storage.Path_stats.path_info) x =
  Float.max 0.0 (Float.min 1.0 ((x -. v.min_num) /. (v.max_num -. v.min_num)))

let selectivity_tests =
  [
    tc "runstats attaches histograms" (fun () ->
        let catalog = skewed_catalog () in
        let _, info = skewed_path catalog in
        Alcotest.(check bool) "present" true (info.histogram <> None));
    tc "histogram beats uniform assumption on skewed data" (fun () ->
        let catalog = skewed_catalog () in
        let stats, info = skewed_path catalog in
        let cond = R.Ccompare (Xia_xpath.Ast.Lt, Xia_xpath.Ast.Number_lit 100.0) in
        let with_hist =
          (Sel.lookup_estimate stats (Helpers.pattern_id "/a/v") D.Ddouble cond).Sel.entries_matched
        in
        let without = float_of_int info.numeric_count *. uniform_below info 100.0 in
        (* truth: 900 of 1000 values are < 100 *)
        Alcotest.(check bool) "hist close" true (Float.abs (with_hist -. 900.0) < 150.0);
        Alcotest.(check bool) "uniform far" true (without < 300.0));
    tc "optimizer picks better plans with histograms" (fun () ->
        (* On the skewed table, "v < 100" holds for 90% of the documents;
           the uniform model, spreading the values over [0, 999], puts it
           near 10%, so the optimizer's estimate must follow the
           histogram. *)
        let catalog = skewed_catalog () in
        let stats, info = skewed_path catalog in
        let stmt = Helpers.statement "for $x in T/a where $x/v < 100 return $x" in
        let docs =
          match (Xia_optimizer.Optimizer.optimize catalog stmt).Xia_optimizer.Plan.bindings with
          | [ b ] -> b.Xia_optimizer.Plan.est_docs
          | _ -> Alcotest.fail "one binding expected"
        in
        let uniform = float_of_int stats.doc_count *. uniform_below info 100.0 in
        Alcotest.(check bool) "hist estimates many" true (docs > 700.0);
        Alcotest.(check bool) "uniform underestimates" true (uniform < 400.0));
  ]

let suites =
  [
    ("histogram.core", histogram_tests);
    ("histogram.non_finite", non_finite_tests);
    ("histogram.selectivity", selectivity_tests);
  ]
