(* Workloads: statements with occurrence frequencies.

   The benefit of an index configuration is a frequency-weighted sum over the
   workload's statements, so frequencies are first-class here. *)

type item = {
  label : string;
  statement : Xia_query.Ast.statement;
  freq : float;
}

type t = item list

let item ?(freq = 1.0) label statement = { label; statement; freq }

(* "S<n>" for the n-th item, n >= 1, built as one string. *)
let rec digits n = if n < 10 then 1 else 1 + digits (n / 10)

let rec fill b i n =
  if i > 0 then begin
    Bytes.set b i (Char.chr (48 + (n mod 10)));
    fill b (i - 1) (n / 10)
  end

let label n =
  let d = digits n in
  let b = Bytes.make (d + 1) 'S' in
  fill b d n;
  Bytes.unsafe_to_string b

let of_statements stmts = List.mapi (fun i s -> item (label (i + 1)) s) stmts

(* Read a workload file: '#' comments, blank lines, "freq|statement" lines;
   statements may be mini-XQuery or SQL/XML.  The reader parses each
   distinct statement text once and repeated lines share the parsed value;
   only label and frequency are per line. *)
let read path =
  let count = ref 0 in
  Xia_storage.Persist.workload_lines path
    ~parse:(fun text ->
      let (`Xquery s | `Sqlxml s) = Xia_query.Sqlxml.any { Xia_xml.Scan.input = text; pos = 0 } in
      s)
    (fun freq statement ->
      incr count;
      { label = label !count; statement; freq })

let of_file path = Xia_xml.Scan.unwrap read path

let of_strings strs =
  List.mapi (fun i s -> item (label (i + 1)) (Xia_query.Parser.parse_statement_exn s)) strs

let queries w = List.filter (fun i -> Xia_query.Ast.is_query i.statement) w
let dml w = List.filter (fun i -> Xia_query.Ast.is_dml i.statement) w

let size = List.length

let total_frequency w = List.fold_left (fun acc i -> acc +. i.freq) 0.0 w

(* First [n] items: the paper's training prefixes in the generalization
   experiment. *)
let prefix n w = List.filteri (fun i _ -> i < n) w

let labels w = List.map (fun i -> i.label) w

let find_opt w label = List.find_opt (fun i -> String.equal i.label label) w

let pp_item ppf i =
  Fmt.pf ppf "%s (freq %.1f): %s" i.label i.freq
    (Xia_query.Printer.statement_to_string i.statement)

let pp ppf w = Fmt.(list ~sep:(any "@.") pp_item) ppf w
