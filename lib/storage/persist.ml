(* Loading and saving document tables as directories of XML files.

   A table maps to a directory; every regular file ending in ".xml" becomes
   one document (in lexicographic filename order, so ids are reproducible).
   This is how external data enters the advisor: point the CLI at a directory
   of XML documents. *)

type load_report = {
  loaded : int;
  failed : (string * string) list;  (* filename, error *)
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let xml_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix (String.lowercase_ascii f) ".xml")
  |> List.sort String.compare

(* Load every *.xml file of [dir] into [store].  Malformed files are
   reported, not fatal. *)
let load_directory store dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    invalid_arg (Printf.sprintf "Persist.load_directory: %s is not a directory" dir);
  let loaded = ref 0 in
  let failed = ref [] in
  List.iter
    (fun file ->
      let path = Filename.concat dir file in
      match Xia_xml.Parser.parse (read_file path) with
      | Ok doc ->
          ignore (Doc_store.insert store doc);
          incr loaded
      | Error e -> failed := (file, Fmt.str "%a" Xia_xml.Parser.pp_error e) :: !failed)
    (xml_files dir);
  { loaded = !loaded; failed = List.rev !failed }

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    Sys.mkdir dir 0o755
  end

(* Write every document of [store] to [dir] as NNNNNN.xml. *)
let save_directory store dir =
  mkdir_p dir;
  Doc_store.iter
    (fun id doc ->
      let path = Filename.concat dir (Printf.sprintf "%06d.xml" id) in
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc (Xia_xml.Printer.to_string doc)))
    store

(* Workload files: '#' comments and blank lines ignored; each remaining line
   is "[freq|]statement"; parsing of the statement itself is left to the
   caller (query front ends live above this library).

   One streaming pass: a line is trimmed and split in place, so it costs
   the line read plus one copy of its statement text (none when it carries
   no prefix and no surrounding whitespace). *)

let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* [s.[lo..hi)] without surrounding whitespace; [s] itself when that is all
   of it, otherwise one copy. *)
let trimmed_sub s lo hi =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi && is_space s.[!lo] do incr lo done;
  while !hi > !lo && is_space s.[!hi - 1] do decr hi done;
  if !lo = 0 && !hi = String.length s then s else String.sub s !lo (!hi - !lo)

(* A frequency prefix that reads as a number must be a usable weight: NaN,
   infinities and negative values would poison every weighted cost sum. *)
let workload_entry path line_no raw =
  let line = trimmed_sub raw 0 (String.length raw) in
  if line = "" || line.[0] = '#' then None
  else
    match String.index_opt line '|' with
    | None -> Some (1.0, line)
    | Some bar -> (
        match float_of_string_opt (trimmed_sub line 0 bar) with
        | None -> Some (1.0, line)
        | Some freq when Float.is_finite freq && freq >= 0.0 ->
            Some (freq, trimmed_sub line (bar + 1) (String.length line))
        | Some freq ->
            invalid_arg
              (Printf.sprintf "%s: line %d: frequency %g is not a finite non-negative number"
                 path line_no freq))

let workload_lines path f =
  let ic = open_in path in
  let[@tail_mod_cons] rec from line_no =
    match input_line ic with
    | exception End_of_file -> []
    | raw -> (
        match workload_entry path line_no raw with
        | Some (freq, text) ->
            let x = f line_no freq text in
            x :: from (line_no + 1)
        | None -> from (line_no + 1))
  in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> from 1)
