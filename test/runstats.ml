(* RUNSTATS and index-build lock, for the byte-locked fixture
   examples/runstats.expected.

   For tiny TPoX and tiny XMark it prints every table's per-path statistics:
   key, node, document and distinct counts, value bytes, numeric count and
   distinct count, min/max in hexadecimal ([%h]) and the histogram's bounds
   and buckets.  It then builds every candidate index the tiny-TPoX
   workload (queries and DML) enumerates and prints, per index, its entry
   count, [size_bytes] and a digest of its (key, doc, pre, attr) entries in
   index order.  Finally it runs the DML statements, which fold their
   changes into those indexes incrementally, and prints the statistics and
   index digests again.  Any change to what a statistics scan or an index
   build visits, or in which order, changes the output.

   Usage: runstats *)

module Catalog = Xia_index.Catalog
module Path_stats = Xia_storage.Path_stats
module Physical_index = Xia_index.Physical_index
module Workload = Xia_workload.Workload
module Tpox = Xia_workload.Tpox
module Xmark = Xia_workload.Xmark

let print_stats label catalog =
  List.iter
    (fun table ->
      let st = Catalog.runstats catalog table in
      Printf.printf "%s table %s docs=%d elements=%d bytes=%d paths=%d\n" label table
        st.Path_stats.doc_count st.Path_stats.total_elements st.Path_stats.total_bytes
        (Path_stats.path_count st);
      Path_stats.iter
        (fun (p : Path_stats.path_info) ->
          Printf.printf
            "  %s nodes=%d docs=%d distinct=%d bytes=%d numeric=%d distinct_num=%d min=%h \
             max=%h"
            (Path_stats.key p) p.node_count p.doc_count p.distinct_values p.total_value_bytes
            p.numeric_count p.distinct_numeric p.min_num p.max_num;
          (match p.histogram with
          | None -> ()
          | Some h ->
              let lo, hi = Xia_storage.Histogram.bounds h in
              Format.printf " hist=%h..%h total=%d %a%!" lo hi
                (Xia_storage.Histogram.total h) Xia_storage.Histogram.pp h);
          print_newline ())
        st)
    (Catalog.table_names catalog)

let entry_line (e : Physical_index.entry) =
  let key =
    match e.key with
    | Physical_index.Kstring s -> Printf.sprintf "s%S" s
    | Physical_index.Kdouble f -> Printf.sprintf "d%h" f
  in
  let attr = match e.node.Xia_xml.Types.attr with None -> -1 | Some i -> i in
  Printf.sprintf "%s %d %d %d\n" key e.doc e.node.Xia_xml.Types.pre attr

let print_indexes label catalog =
  List.iter
    (fun table ->
      List.iter
        (fun pi ->
          let b = Buffer.create 4096 in
          Physical_index.iter (fun e -> Buffer.add_string b (entry_line e)) pi;
          Printf.printf "%s index %s entries=%d size=%d digest=%s\n" label
            (Xia_index.Index_def.logical_key (Physical_index.def pi))
            (Physical_index.entry_count pi) (Physical_index.size_bytes pi)
            (Digest.to_hex (Digest.string (Buffer.contents b))))
        (List.rev (Catalog.real_indexes catalog table)))
    (Catalog.table_names catalog)

let () =
  let xmark = Catalog.create () in
  Xmark.load ~scale:Xmark.tiny_scale ~seed:7 xmark;
  print_stats "xmark" xmark;
  let catalog = Catalog.create () in
  Tpox.load ~scale:Tpox.tiny_scale ~seed:7 catalog;
  print_stats "tpox" catalog;
  let workload = Tpox.queries () @ Tpox.dml () in
  let set = Xia_advisor.Enumeration.candidates catalog workload in
  List.iter
    (fun (c : Xia_advisor.Candidate.t) -> ignore (Catalog.create_index catalog c.def))
    (Xia_advisor.Candidate.to_list set);
  print_indexes "tpox" catalog;
  List.iter
    (fun (item : Workload.item) ->
      ignore (Xia_optimizer.Executor.run_statement catalog item.Workload.statement))
    (Tpox.dml ());
  Catalog.refresh_indexes catalog;
  print_stats "after-dml" catalog;
  print_indexes "after-dml" catalog
