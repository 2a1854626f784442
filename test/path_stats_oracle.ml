(* A naive RUNSTATS, kept as the differential oracle for [Path_stats.collect].

   Every node's rooted label path is built as a fresh list and looked up in
   a table keyed by that list, and each path's values are kept whole: no
   dataguide, no trie, no reservoir.  Paths come out in lexicographic order
   of their label lists. *)

module DS = Xia_storage.Doc_store
module PS = Xia_storage.Path_stats
module H = Xia_storage.Histogram

type row = {
  path : string list;
  key : string;
  nodes : int;
  docs : int;
  distinct : int;  (* at least 1, as RUNSTATS reports it *)
  bytes : int;
  numeric : int;
  distinct_numeric : int;
  min_num : float;
  max_num : float;
  histogram : string option;
      (* bounds, total and buckets; only for paths whose numeric values
         all fit the reservoir, as beyond it the sample is random *)
}

let print_histogram h =
  let lo, hi = H.bounds h in
  Format.asprintf "%h..%h total=%d %a" lo hi (H.total h) H.pp h

(* The reservoir size of [Path_stats]: up to it every value is sampled. *)
let sample_cap = 4096

let histogram ~numeric h = if numeric > sample_cap then None else Option.map print_histogram h

(* One row per path, from the documents' trees. *)
let collect store =
  let rows : (string list, (int * string) list) Hashtbl.t = Hashtbl.create 64 in
  DS.iter
    (fun doc_id doc ->
      Walk_oracle.iter_nodes
        (fun _ _ path value ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt rows path) in
          Hashtbl.replace rows path ((doc_id, value) :: prev))
        (Xia_xml.Packed.unpack doc))
    store;
  Hashtbl.fold
    (fun path seen acc ->
      let seen = List.rev seen in
      let values = List.map snd seen in
      let numbers = List.filter_map (fun v -> float_of_string_opt (String.trim v)) values in
      let count_distinct cmp l = List.length (List.sort_uniq cmp l) in
      let numeric = List.length numbers in
      {
        path;
        key = String.concat "/" path;
        nodes = List.length seen;
        docs = count_distinct Int.compare (List.map fst seen);
        distinct = max 1 (count_distinct String.compare values);
        bytes = List.fold_left (fun n v -> n + String.length v) 0 values;
        numeric;
        distinct_numeric = count_distinct Float.compare numbers;
        min_num = List.fold_left (fun m v -> if m > v then v else m) infinity numbers;
        max_num = List.fold_left (fun m v -> if m < v then v else m) neg_infinity numbers;
        histogram = histogram ~numeric (H.create numbers);
      }
      :: acc)
    rows []
  |> List.sort (fun a b -> List.compare String.compare a.path b.path)

(* The same rows read off collected statistics, in [infos] order. *)
let of_stats (stats : PS.t) =
  List.map
    (fun (i : PS.path_info) ->
      {
        path = PS.path i;
        key = PS.key i;
        nodes = i.node_count;
        docs = i.doc_count;
        distinct = i.distinct_values;
        bytes = i.total_value_bytes;
        numeric = i.numeric_count;
        distinct_numeric = i.distinct_numeric;
        min_num = i.min_num;
        max_num = i.max_num;
        histogram = histogram ~numeric:i.numeric_count i.histogram;
      })
    (Array.to_list stats.infos)
