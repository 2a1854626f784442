(* Loading and saving document tables as directories of XML files.

   A table maps to a directory; every regular file ending in ".xml" becomes
   one document (in lexicographic filename order, so ids are reproducible).
   This is how external data enters the advisor: point the CLI at a directory
   of XML documents. *)

module Scan = Xia_xml.Scan

type load_report = {
  loaded : int;
  failed : Scan.error list;
}

(* A [Sys_error] as an error about [path]: its message without the
   "path: " prefix the runtime puts in front. *)
let sys_error path msg =
  let prefix = path ^ ": " in
  let n = String.length prefix in
  Scan.error path
    (if String.starts_with ~prefix msg then String.sub msg n (String.length msg - n) else msg)

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error (sys_error path msg)
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          try Ok (really_input_string ic (in_channel_length ic))
          with Sys_error msg -> Error (sys_error path msg))

(* The document in [path], or the error located in that file. *)
let read_document path =
  Result.bind (read_file path) (fun text ->
      Result.map_error (fun e -> { e with Scan.source = path }) (Xia_xml.Parser.parse text))

(* Load every *.xml file of [dir] into [store].  Malformed files are
   reported, not fatal. *)
let load_directory store dir =
  match Sys.readdir dir with
  | exception Sys_error msg -> Error (sys_error dir msg)
  | files ->
      let loaded = ref 0 in
      let failed = ref [] in
      Array.sort String.compare files;
      Array.iter
        (fun file ->
          let path = Filename.concat dir file in
          if Filename.check_suffix (String.lowercase_ascii file) ".xml" then
            match read_document path with
            | Ok doc ->
                ignore (Doc_store.insert store doc);
                incr loaded
            | Error e -> failed := e :: !failed)
        files;
      Ok { loaded = !loaded; failed = List.rev !failed }

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
        (fun () -> output_string oc (Xia_xml.Printer.to_string (Xia_xml.Packed.unpack doc))))
    store

(* Workload files: '#' comments and blank lines ignored; each remaining line
   is "[freq|]statement"; parsing of the statement itself is left to the
   caller (query front ends live above this library).

   Query logs repeat a few hundred distinct lines many times.  A table from
   statement text to parsed value parses each text once, so the same
   statement under another prefix or spacing shares one value.  A raw line
   whose text is already in that table enters a second table, keyed by the
   whole line: from then on the line costs [input_line], one hash lookup
   and the caller's item, with no trimming, splitting, frequency parse or
   text copy.  A line enters it only when its text repeats, so a file of
   distinct lines keeps no second copy of its lines.  A new line is trimmed
   and split in place: its frequency prefix and its statement text are
   copied once each (the text not at all when the line has no prefix and
   no surrounding whitespace).  A bad line stops the read, so no error is
   memoized. *)

module Strings = Hashtbl.Make (String)

type 'b line = Skip | Entry of float * 'b

let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* The first non-space offset of [s] in [lo, hi), and one past the last. *)
let rec skip_fwd s lo hi = if lo < hi && is_space s.[lo] then skip_fwd s (lo + 1) hi else lo
let rec skip_back s lo hi = if hi > lo && is_space s.[hi - 1] then skip_back s lo (hi - 1) else hi

let sub s lo hi = if lo = 0 && hi = String.length s then s else String.sub s lo (hi - lo)

(* [Entry (freq, parse text)] for the statement text of [raw] in [at, hi),
   parsed only when [texts] does not hold it yet; a [Scan.Fail] from
   [parse] is moved from the text to [raw].  A line whose text was seen
   before enters [lines]. *)
let entry parse lines texts raw hi freq at =
  let text = sub raw at hi in
  match Strings.find texts text with
  | value ->
      let known = Entry (freq, value) in
      Strings.add lines raw known;
      known
  | exception Not_found -> (
      match parse text with
      | value ->
          Strings.add texts text value;
          Entry (freq, value)
      | exception Scan.Fail (k, message) -> raise (Scan.Fail (at + k, message)))

(* What the raw line [raw] means: [Skip] for a blank or comment line, else
   its [entry].  A frequency prefix that reads as a number must be a usable
   weight: NaN, infinities and negative values would poison every weighted
   cost sum. *)
let line_of parse lines texts raw =
  let n = String.length raw in
  let lo = skip_fwd raw 0 n in
  let hi = skip_back raw lo n in
  if lo = hi || raw.[lo] = '#' then Skip
  else
    match String.index_from raw lo '|' with
    | exception Not_found -> entry parse lines texts raw hi 1.0 lo
    | bar -> (
        match float_of_string_opt (sub raw lo (skip_back raw lo bar)) with
        | None -> entry parse lines texts raw hi 1.0 lo
        | Some freq when Float.is_finite freq && freq >= 0.0 ->
            entry parse lines texts raw hi freq (skip_fwd raw (bar + 1) hi)
        | Some freq ->
            raise
              (Scan.Fail (lo, Printf.sprintf "frequency %g is not a finite non-negative number" freq)))

let workload_lines path ~parse f =
  match open_in path with
  | exception Sys_error msg -> Error (sys_error path msg)
  | ic -> (
      let lines = Strings.create 16 and texts = Strings.create 16 in
      let line = ref 0 in
      let[@tail_mod_cons] rec from () =
        match input_line ic with
        | exception End_of_file -> []
        | raw -> (
            incr line;
            let meaning =
              match Strings.find lines raw with
              | known -> known
              | exception Not_found -> line_of parse lines texts raw
            in
            match meaning with
            | Entry (freq, value) -> f freq value :: from ()
            | Skip -> from ())
      in
      match Fun.protect ~finally:(fun () -> close_in_noerr ic) from with
      | items -> Ok items
      | exception Scan.Fail (at, message) ->
          Error { Scan.source = path; line = !line; column = at + 1; message }
      | exception Sys_error msg -> Error (sys_error path msg))
