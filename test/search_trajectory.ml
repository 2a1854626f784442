(* Search trajectories for the byte-locked fixture
   examples/search_trajectory.expected.

   Runs the five search algorithms and the All-Index reference on three
   fixtures: tiny TPoX, tiny XMark, and tiny TPoX plus eight synthetic
   statements (whose overlapping affected sets build multi-member
   interaction groups).  Each run gets a fresh evaluator and
   two budgets, half and a quarter of the All-Index size.  It prints the
   final configuration's logical keys in order, its size, its benefit in
   hexadecimal ([%h]), the optimizer calls the search consumed and the
   evaluations it pruned, so any change to which configurations a search
   visits, in what order, or to how a benefit is summed changes the output.

   Usage: search_trajectory *)

module B = Xia_advisor.Benefit
module C = Xia_advisor.Candidate
module S = Xia_advisor.Search
module En = Xia_advisor.Enumeration
module Cat = Xia_index.Catalog

let tpox_catalog () =
  let catalog = Cat.create () in
  Xia_workload.Tpox.load ~scale:Xia_workload.Tpox.tiny_scale ~seed:7 catalog;
  catalog

let xmark_catalog () =
  let catalog = Cat.create () in
  Xia_workload.Xmark.load ~scale:Xia_workload.Xmark.tiny_scale ~seed:7 catalog;
  catalog

let fixtures () =
  let tpox = tpox_catalog () in
  [
    ("tpox", tpox, Xia_workload.Tpox.workload ());
    ("xmark", xmark_catalog (), Xia_workload.Xmark.workload ());
    ( "tpox+synthetic",
      tpox,
      Xia_workload.Tpox.workload ()
      @ Xia_workload.Synthetic.workload ~seed:11 tpox (Cat.table_names tpox) 8 );
  ]

let algorithms =
  [
    ("greedy", fun ev set ~budget -> S.greedy ev set ~budget);
    ("heuristics", fun ev set ~budget -> S.greedy_heuristics ev set ~budget);
    ("tdlite", fun ev set ~budget -> S.top_down_lite ev set ~budget);
    ("tdfull", fun ev set ~budget -> S.top_down_full ev set ~budget);
    ("dp", fun ev set ~budget -> S.dynamic_programming ev set ~budget);
    ("allindex", fun ev set ~budget:_ -> S.all_index ev set);
  ]

let print_outcome label (o : S.outcome) =
  Printf.printf "%s size=%d benefit=%h calls=%d pruned=%d\n" label o.S.size o.S.benefit
    o.S.optimizer_calls o.S.pruned;
  List.iter
    (fun (c : C.t) -> Printf.printf "  %s\n" (Xia_index.Index_def.logical_key c.C.def))
    o.S.config

let () =
  List.iter
    (fun (name, catalog, wl) ->
      let set = En.candidates wl in
      let all_size = (S.all_index (B.create catalog wl) set).S.size in
      List.iter
        (fun div ->
          let budget = all_size / div in
          List.iter
            (fun (alg, search) ->
              let ev = B.create catalog wl in
              print_outcome
                (Printf.sprintf "%s budget=1/%d %s" name div alg)
                (search ev set ~budget))
            algorithms)
        [ 2; 4 ])
    (fixtures ())
