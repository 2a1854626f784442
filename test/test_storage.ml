(* Tests for the document store and path statistics. *)

module DS = Xia_storage.Doc_store
module PS = Xia_storage.Path_stats

let tc name f = Alcotest.test_case name `Quick f

(* The path whose key is [key], by a scan of every path. *)
let find st key = PS.fold (fun found i -> if PS.key i = key then Some i else found) st None

let store_with docs =
  let s = DS.create "T" in
  List.iter (fun d -> ignore (DS.insert s (Helpers.xml d))) docs;
  s

let doc_store_tests =
  [
    tc "touched_since lists ids by their last write" (fun () ->
        let s = DS.create "T" in
        let ids = List.init 1500 (fun _ -> DS.insert s (Helpers.xml "<a/>")) in
        Alcotest.(check (list int)) "every insert" ids (DS.touched_since s 0);
        let gen0 = DS.generation s in
        ignore (Helpers.replace s 0 (Helpers.xml "<b/>"));
        ignore (DS.delete s 1_200);
        ignore (Helpers.replace s 1 (Helpers.xml "<b/>"));
        let gen1 = DS.generation s in
        ignore (Helpers.replace s 0 (Helpers.xml "<c/>"));
        Alcotest.(check bool) "a failed delete writes nothing" false (DS.delete s 1_200);
        Alcotest.(check int) "one generation per write" (gen0 + 4) (DS.generation s);
        Alcotest.(check (list int)) "since gen0" [ 1_200; 1; 0 ] (DS.touched_since s gen0);
        Alcotest.(check (list int)) "since gen1" [ 0 ] (DS.touched_since s gen1);
        Alcotest.(check (list int)) "none" [] (DS.touched_since s (DS.generation s)));
    tc "insert assigns increasing ids" (fun () ->
        let s = DS.create "T" in
        let a = DS.insert s (Helpers.xml "<a/>") in
        let b = DS.insert s (Helpers.xml "<b/>") in
        Alcotest.(check bool) "increasing" true (b > a);
        Alcotest.(check int) "count" 2 (DS.doc_count s));
    tc "find returns stored document" (fun () ->
        let s = DS.create "T" in
        let id = DS.insert s (Helpers.xml "<a>x</a>") in
        match DS.find s id with
        | Some d -> Alcotest.(check string) "doc" "<a>x</a>" (Xia_xml.Printer.to_string d)
        | None -> Alcotest.fail "not found");
    tc "delete removes and updates totals" (fun () ->
        let s = DS.create "T" in
        let id = DS.insert s (Helpers.xml "<a><b>xxx</b></a>") in
        let bytes = DS.total_bytes s in
        Alcotest.(check bool) "bytes" true (bytes > 0);
        Alcotest.(check bool) "deleted" true (DS.delete s id);
        Alcotest.(check int) "count" 0 (DS.doc_count s);
        Alcotest.(check int) "bytes zero" 0 (DS.total_bytes s);
        Alcotest.(check int) "elements zero" 0 (DS.total_elements s);
        Alcotest.(check bool) "double delete" false (DS.delete s id));
    tc "replace swaps content" (fun () ->
        let s = DS.create "T" in
        let id = DS.insert s (Helpers.xml "<a/>") in
        Alcotest.(check bool) "replaced" true (Helpers.replace s id (Helpers.xml "<b><c/></b>"));
        Alcotest.(check int) "elements" 2 (DS.total_elements s);
        Alcotest.(check bool) "missing" false (Helpers.replace s 999 (Helpers.xml "<x/>")));
    tc "update takes only documents packed for the table" (fun () ->
        let s = DS.create "T" in
        let id = DS.insert s (Helpers.xml "<a>x</a>") in
        let own = Option.get (DS.find_packed s id) in
        Alcotest.(check bool) "own" true (DS.update s id own);
        Alcotest.check_raises "foreign"
          (Invalid_argument "Doc_store.update: document packed for another table")
          (fun () -> ignore (DS.update s id (Helpers.packed (Helpers.xml "<a>y</a>")))));
    tc "generation bumps on DML only" (fun () ->
        let s = DS.create "T" in
        let g0 = DS.generation s in
        let id = DS.insert s (Helpers.xml "<a/>") in
        let g1 = DS.generation s in
        ignore (DS.find s id);
        Alcotest.(check int) "find no bump" g1 (DS.generation s);
        ignore (DS.delete s id);
        Alcotest.(check bool) "bumps" true (DS.generation s > g1 && g1 > g0));
    tc "pages at least one" (fun () ->
        Alcotest.(check int) "pages" 1 (DS.pages (DS.create "T")));
    tc "fold and iter visit all docs" (fun () ->
        let s = store_with [ "<a/>"; "<b/>"; "<c/>" ] in
        Alcotest.(check int) "fold" 3 (DS.fold (fun _ _ n -> n + 1) s 0);
        Alcotest.(check int) "ids" 3 (List.length (DS.doc_ids s)));
  ]

let stats_of docs = PS.collect (store_with docs)

let path_stats_tests =
  [
    tc "collect counts nodes per path" (fun () ->
        let st = stats_of [ "<a><b>1</b><b>2</b></a>"; "<a><b>3</b></a>" ] in
        match find st "a/b" with
        | Some info ->
            Alcotest.(check int) "nodes" 3 info.PS.node_count;
            Alcotest.(check int) "docs" 2 info.PS.doc_count;
            Alcotest.(check int) "distinct" 3 info.PS.distinct_values
        | None -> Alcotest.fail "path missing");
    tc "distinct values deduplicated" (fun () ->
        let st = stats_of [ "<a><b>x</b><b>x</b><b>y</b></a>" ] in
        match find st "a/b" with
        | Some info -> Alcotest.(check int) "distinct" 2 info.PS.distinct_values
        | None -> Alcotest.fail "path missing");
    tc "numeric stats" (fun () ->
        let st = stats_of [ "<a><v>1.5</v><v>4.5</v><v>nope</v></a>" ] in
        match find st "a/v" with
        | Some info ->
            Alcotest.(check int) "numeric" 2 info.PS.numeric_count;
            Alcotest.(check (float 0.001)) "min" 1.5 info.PS.min_num;
            Alcotest.(check (float 0.001)) "max" 4.5 info.PS.max_num
        | None -> Alcotest.fail "path missing");
    tc "attribute paths recorded" (fun () ->
        let st = stats_of [ {|<a id="1"><b k="2"/></a>|} ] in
        Alcotest.(check bool) "a/@id" true (find st "a/@id" <> None);
        Alcotest.(check bool) "a/b/@k" true (find st "a/b/@k" <> None));
    tc "dataguide size" (fun () ->
        let st = stats_of [ "<a><b/><c><d/></c></a>" ] in
        Alcotest.(check int) "paths" 4 (PS.path_count st);
        Alcotest.(check int) "fold" 4 (PS.fold (fun n _ -> n + 1) st 0));
    tc "find misses absent paths" (fun () ->
        let st = stats_of [ "<a><b/></a>" ] in
        Alcotest.(check bool) "empty path" true (find st "" = None);
        Alcotest.(check bool) "unseen label" true (find st "a/never-seen" = None);
        Alcotest.(check bool) "too long" true (find st "a/b/a" = None));
    tc "doc-level aggregates" (fun () ->
        let st = stats_of [ "<a><b/></a>"; "<a/>" ] in
        Alcotest.(check int) "docs" 2 st.PS.doc_count;
        Alcotest.(check int) "elements" 3 st.PS.total_elements);
    tc "matching respects the pattern" (fun () ->
        let st = stats_of [ "<a><b><s>1</s></b><c><s>2</s></c></a>" ] in
        let hits = PS.matching st (Helpers.pattern "/a/*/s") in
        Alcotest.(check int) "two paths" 2 (List.length hits);
        let hits2 = PS.matching st (Helpers.pattern "/a/b/s") in
        Alcotest.(check int) "one path" 1 (List.length hits2));
    tc "matching is memoized per generation" (fun () ->
        let store = store_with [ "<a><b>1</b></a>" ] in
        let st = PS.collect store in
        let h1 = PS.matching st (Helpers.pattern "//b") in
        let h2 = PS.matching st (Helpers.pattern "//b") in
        Alcotest.(check bool) "same" true (h1 == h2));
    tc "siblings sort by label before their extensions" (fun () ->
        let st = stats_of [ "<r><a-b/><a><x/></a><a.b/><a_b/></r>" ] in
        let keys = List.map PS.key (Array.to_list st.PS.infos) in
        Alcotest.(check (list string)) "label-list order"
          [ "r"; "r/a"; "r/a/x"; "r/a-b"; "r/a.b"; "r/a_b" ] keys);
    tc "ordered is deterministic" (fun () ->
        let st = stats_of [ "<a><z/><m/><b/></a>" ] in
        let keys = List.map PS.key (Array.to_list st.PS.infos) in
        Alcotest.(check (list string)) "sorted" [ "a"; "a/b"; "a/m"; "a/z" ] keys);
  ]

(* Documents over labels that extend one another by a character sorting
   below or above ['/'], with values from [value]. *)
let extending_doc_gen value =
  QCheck.Gen.(
    let label = oneofl [ "a"; "a-b"; "a.b"; "a_b" ] in
    let tree =
      sized_size (int_range 1 20)
        (fix (fun self n ->
             map3
               (fun tag attrs children -> Xia_xml.Types.element ~attrs tag children)
               label
               (list_size (int_range 0 2) (pair (oneofl [ "a"; "a-b" ]) value))
               (if n <= 1 then map (fun v -> [ Xia_xml.Types.text v ]) value
                else list_size (int_range 0 3) (self (n / 2)))))
    in
    map2 (fun tag children -> Xia_xml.Types.element tag children) label (list_size (int_range 1 3) tree))

(* [collect] equals the naive oracle field by field, in the same order,
   and each path sits at its own [index]. *)
let oracle_agrees docs =
  let s = DS.create "P" in
  List.iter (fun d -> ignore (DS.insert s d)) docs;
  let st = PS.collect s in
  Path_stats_oracle.of_stats st = Path_stats_oracle.collect s
  && Array.for_all (fun (i : PS.path_info) -> st.PS.infos.(i.index) == i) st.PS.infos

let properties =
  [
    QCheck.Test.make ~count:100 ~name:"stats node totals match document walk"
      (QCheck.list_of_size (QCheck.Gen.int_range 1 5) Helpers.doc_arbitrary)
      (fun docs ->
        let s = DS.create "P" in
        List.iter (fun d -> ignore (DS.insert s d)) docs;
        let st = PS.collect s in
        let total_from_stats = PS.fold (fun acc i -> acc + i.PS.node_count) st 0 in
        let total_walk = ref 0 in
        DS.iter
          (fun _ d ->
            Walk_oracle.iter_nodes (fun _ _ _ _ -> incr total_walk) (Xia_xml.Packed.unpack d))
          s;
        total_from_stats = !total_walk);
    QCheck.Test.make ~count:200 ~name:"per-path stats equal an oracle recount"
      (QCheck.list_of_size (QCheck.Gen.int_range 1 6) Helpers.doc_arbitrary)
      oracle_agrees;
    QCheck.Test.make ~count:200
      ~name:"per-path stats equal an oracle recount over labels extending each other"
      (QCheck.make
         ~print:(fun ds -> String.concat "\n" (List.map Xia_xml.Printer.to_string ds))
         QCheck.Gen.(
           list_size (int_range 1 6) (extending_doc_gen (oneofl [ "1"; "2.5"; "-7"; "x"; "" ]))))
      oracle_agrees;
    QCheck.Test.make ~count:300
      ~name:"per-path stats equal an oracle recount over every number spelling"
      (QCheck.make
         ~print:(fun ds -> String.concat "\n" (List.map Xia_xml.Printer.to_string ds))
         QCheck.Gen.(list_size (int_range 1 6) (extending_doc_gen Helpers.number_text_gen)))
      oracle_agrees;
    (* Past the reservoir's 4,096 slots the sample stays uniform over the
       numbers, whatever order the documents are read in: for numbers
       rising with the document id its bounds span nearly all of
       [min_num, max_num], and about half of it lies below the middle. *)
    QCheck.Test.make ~count:5 ~name:"a histogram samples numbers rising with the doc id uniformly"
      (QCheck.int_range 8_192 16_384)
      (fun n ->
        let s = DS.create "R" in
        for i = 0 to n - 1 do
          let open Xia_xml.Types in
          ignore (DS.insert s (element "a" [ leaf "v" (string_of_int i) ]))
        done;
        match find (PS.collect s) "a/v" with
        | Some { PS.histogram = Some h; min_num; max_num; _ } ->
            let module H = Xia_storage.Histogram in
            let lo, hi = H.bounds h in
            hi -. lo >= 0.9 *. (max_num -. min_num)
            && Float.abs (H.fraction_below h ((min_num +. max_num) /. 2.0) -. 0.5) < 0.1
        | _ -> false);
    QCheck.Test.make ~count:100 ~name:"doc_count per path never exceeds table docs"
      (QCheck.list_of_size (QCheck.Gen.int_range 1 5) Helpers.doc_arbitrary)
      (fun docs ->
        let s = DS.create "P" in
        List.iter (fun d -> ignore (DS.insert s d)) docs;
        let st = PS.collect s in
        PS.fold (fun ok i -> ok && i.PS.doc_count <= st.PS.doc_count) st true);
  ]

(* ---------- per-document sizes under random DML ---------- *)

type op =
  | Insert of Xia_xml.Types.t
  | Delete of int
  | Update of int * Xia_xml.Types.t  (* packed with the store's labels first *)

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun d -> Insert d) Helpers.doc_gen);
        (2, map (fun k -> Delete k) (int_range 0 12));
        (2, map2 (fun k d -> Update (k, d)) (int_range 0 12) Helpers.doc_gen);
      ])

let print_op = function
  | Insert d -> "insert " ^ Xia_xml.Printer.to_string d
  | Delete k -> Printf.sprintf "delete %d" k
  | Update (k, d) -> Printf.sprintf "update %d %s" k (Xia_xml.Printer.to_string d)

let apply s = function
  | Insert d -> ignore (DS.insert s d); true
  | Delete k -> DS.delete s k
  | Update (k, d) -> Helpers.replace s k d

(* Everything a failed delete or update must leave alone. *)
let snapshot s =
  ( DS.generation s,
    DS.total_bytes s,
    DS.total_elements s,
    List.map
      (fun id ->
        match DS.find_packed s id with
        | Some p ->
            (id, Xia_xml.Printer.to_string (Xia_xml.Packed.unpack p), Xia_xml.Packed.elements p, p.bytes)
        | None -> (id, "", -1, -1))
      (DS.doc_ids s) )

(* The sizes packing sums up equal those of the stored tree. *)
let sizes_consistent s =
  let docs = List.filter_map (DS.find_packed s) (DS.doc_ids s) in
  let elements = Xia_xml.Packed.elements in
  List.for_all
    (fun (p : Xia_xml.Packed.t) ->
      let tree = Xia_xml.Packed.unpack p in
      elements p = Xia_xml.Types.count_elements tree && p.bytes = Xia_xml.Types.byte_size tree)
    docs
  && DS.total_elements s = List.fold_left (fun n p -> n + elements p) 0 docs
  && DS.total_bytes s = List.fold_left (fun n (p : Xia_xml.Packed.t) -> n + p.bytes) 0 docs

let size_properties =
  [
    QCheck.Test.make ~count:300 ~name:"per-document sizes stay exact under DML"
      (QCheck.make
         ~print:(fun ops -> String.concat "\n" (List.map print_op ops))
         QCheck.Gen.(list_size (int_range 1 25) op_gen))
      (fun ops ->
        let s = DS.create "P" in
        List.for_all
          (fun op ->
            let before = snapshot s in
            let ok = apply s op in
            sizes_consistent s && (ok || snapshot s = before))
          ops);
  ]

(* ---------- the store against a map oracle ---------- *)

module Int_map = Map.Make (Int)

(* What the store should hold: the live documents by id, the next id, the
   generation and each written id's last-write generation. *)
type oracle = {
  docs : Xia_xml.Types.t Int_map.t;
  next : int;
  gen : int;
  written : int Int_map.t;
}

let oracle_apply o op =
  let write o id docs =
    { o with docs; gen = o.gen + 1; written = Int_map.add id (o.gen + 1) o.written }
  in
  match op with
  | Insert d -> { (write o o.next (Int_map.add o.next d o.docs)) with next = o.next + 1 }
  | Delete k when Int_map.mem k o.docs -> write o k (Int_map.remove k o.docs)
  | Update (k, d) when Int_map.mem k o.docs -> write o k (Int_map.add k d o.docs)
  | Delete _ | Update _ -> o

let agrees_with s o =
  let text = Xia_xml.Printer.to_string in
  let live = List.map fst (Int_map.bindings o.docs) in
  let iterated = ref [] in
  DS.iter (fun id _ -> iterated := id :: !iterated) s;
  let found id =
    Option.map (fun p -> text (Xia_xml.Packed.unpack p)) (DS.find_packed s id)
  in
  let last_writes gen =
    Int_map.bindings o.written
    |> List.filter (fun (_, g) -> g > gen)
    |> List.sort (fun (_, a) (_, b) -> Int.compare a b)
    |> List.map fst
  in
  List.rev !iterated = live
  && List.rev (DS.fold (fun id _ acc -> id :: acc) s []) = live
  && DS.doc_ids s = live
  && DS.fold
       (fun id p ok -> ok && match DS.find_packed s id with Some q -> q == p | None -> false)
       s true
  && List.for_all
       (fun id -> found id = Option.map text (Int_map.find_opt id o.docs))
       (List.init (o.next + 3) (fun i -> i - 1))
  && DS.doc_count s = Int_map.cardinal o.docs
  && DS.generation s = o.gen
  && DS.total_bytes s = Int_map.fold (fun _ d n -> n + Xia_xml.Types.byte_size d) o.docs 0
  && DS.total_elements s = Int_map.fold (fun _ d n -> n + Xia_xml.Types.count_elements d) o.docs 0
  && List.for_all
       (fun gen -> DS.touched_since s gen = last_writes gen)
       (List.init (o.gen + 1) Fun.id)

let oracle_properties =
  [
    QCheck.Test.make ~count:300 ~name:"the store agrees with a map oracle under random DML"
      (QCheck.make
         ~print:(fun ops -> String.concat "\n" (List.map print_op ops))
         QCheck.Gen.(list_size (int_range 1 30) op_gen))
      (fun ops ->
        let s = DS.create "P" in
        let o = ref { docs = Int_map.empty; next = 0; gen = 0; written = Int_map.empty } in
        List.for_all
          (fun op ->
            ignore (apply s op);
            o := oracle_apply !o op;
            agrees_with s !o)
          ops);
  ]

let suites =
  [
    ("storage.doc_store", doc_store_tests);
    ("storage.path_stats", path_stats_tests);
    Helpers.qsuite "storage.properties" properties;
    Helpers.qsuite "storage.sizes" size_properties;
    Helpers.qsuite "storage.oracle" oracle_properties;
  ]
