(* Suppression machinery, two forms:

   1. In-source attributes: [@lint.allow "D001"] on an expression, or
      [@@lint.allow "D001"] on a value binding / structure item.  The payload
      is one string of whitespace/comma-separated check IDs.

   2. A checked-in allow file ("lint.allow") with one per-site entry per
      line:

        D001 lib/core/par.ml:68 -- why this site is intentionally exempt

      The path is matched by component suffix (so entries keep working when
      the tool is invoked from a build sandbox or with a path prefix), the
      ":line" part is optional, and the reason after "--" is mandatory:
      an allowlist entry without a justification is itself an error, and so
      is one whose ID names no check (it would silently suppress nothing). *)

type entry = {
  id : string;
  path : string;
  line : int option;
  reason : string;
}

let is_blank s = String.for_all (fun c -> c = ' ' || c = '\t') s

let split_ws s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun t -> t <> "")

(* "path/file.ml:42" -> ("path/file.ml", Some 42); no colon -> (s, None). *)
let split_site s =
  match String.rindex_opt s ':' with
  | None -> Ok (s, None)
  | Some i -> (
      let path = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt rest with
      | Some n when n > 0 -> Ok (path, Some n)
      | _ -> Error (Printf.sprintf "invalid line number %S" rest))

let parse_line ~known ~file lineno raw =
  let line =
    match String.index_opt raw '#' with
    | Some 0 -> ""
    | _ -> raw
  in
  if is_blank line then Ok None
  else
    let err msg =
      Error (Printf.sprintf "%s:%d: %s (expected: ID path[:line] -- reason)" file lineno msg)
    in
    let sep_index =
      (* first "--" token preceded by whitespace: the reason separator *)
      let n = String.length line in
      let rec scan i =
        if i + 1 >= n then None
        else if
          line.[i] = '-' && line.[i + 1] = '-'
          && (i = 0 || line.[i - 1] = ' ' || line.[i - 1] = '\t')
        then Some i
        else scan (i + 1)
      in
      scan 0
    in
    match sep_index with
    | Some i -> (
        let head = String.sub line 0 i in
        let reason = String.trim (String.sub line (i + 2) (String.length line - i - 2)) in
        if reason = "" then err "empty reason after --"
        else
          match split_ws head with
          | [ id; _ ] when not (List.mem id known) ->
              Error
                (Printf.sprintf "%s:%d: unknown check id %s (known: %s)" file lineno id
                   (String.concat ", " known))
          | [ id; site ] -> (
              match split_site site with
              | Error e -> err e
              | Ok (path, line) -> Ok (Some { id; path; line; reason }))
          | _ -> err "expected exactly 'ID path[:line]' before --")
    | _ -> err "missing ' -- reason'"

let parse_allow_file ~known ~file contents =
  let lines = String.split_on_char '\n' contents in
  let entries, errors =
    List.fold_left
      (fun (entries, errors) (lineno, raw) ->
        match parse_line ~known ~file lineno raw with
        | Ok None -> (entries, errors)
        | Ok (Some e) -> (e :: entries, errors)
        | Error msg -> (entries, msg :: errors))
      ([], [])
      (List.mapi (fun i l -> (i + 1, l)) lines)
  in
  match errors with
  | [] -> Ok (List.rev entries)
  | es -> Error (List.rev es)

(* Any unreadable path — missing, a directory, no permission — is an
   [Error] naming it, never an escaped [Sys_error]. *)
let load_allow_file ~known path =
  if not (Sys.file_exists path) then
    Error [ Printf.sprintf "allow file %s does not exist" path ]
  else
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | contents -> parse_allow_file ~known ~file:path contents
    | exception Sys_error m ->
        Error [ Printf.sprintf "allow file %s is unreadable: %s" path m ]

let path_components p =
  String.split_on_char '/' p |> List.filter (fun c -> c <> "" && c <> ".")

(* [entry_path] matches [file] when its components are a suffix of the
   file's components: "index/index_def.ml" matches "../lib/index/index_def.ml". *)
let path_matches ~entry_path ~file =
  let e = List.rev (path_components entry_path) in
  let f = List.rev (path_components file) in
  let rec prefix = function
    | [], _ -> true
    | _, [] -> false
    | x :: xs, y :: ys -> String.equal x y && prefix (xs, ys)
  in
  prefix (e, f)

let suppresses entry (f : Finding.t) =
  String.equal entry.id f.Finding.id
  && path_matches ~entry_path:entry.path ~file:f.Finding.file
  && match entry.line with None -> true | Some l -> l = f.Finding.line

let apply entries findings =
  List.partition (fun f -> not (List.exists (fun e -> suppresses e f) entries)) findings

(* --- in-source suppression helpers ------------------------------------- *)

let attribute_name = "lint.allow"

let ids_of_payload (payload : Parsetree.payload) =
  match payload with
  | Parsetree.PStr items ->
      List.concat_map
        (fun (item : Parsetree.structure_item) ->
          match item.pstr_desc with
          | Parsetree.Pstr_eval
              ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _) ->
              String.map (fun c -> if c = ',' || c = ';' then ' ' else c) s
              |> split_ws
          | _ -> [])
        items
  | _ -> []

let allow_ids (attrs : Parsetree.attributes) =
  List.concat_map
    (fun (a : Parsetree.attribute) ->
      if String.equal a.attr_name.txt attribute_name then ids_of_payload a.attr_payload
      else [])
    attrs

(* --- lint-note comments (H002) ----------------------------------------- *)

(* Lines carrying a "(* lint: reason *)" note.  Comments never reach the
   parsetree, so we scan the raw text: a line participates when, with blanks
   removed, it contains "(*lint:".  Matched in place, skipping blanks. *)
let lint_note_lines source =
  let notes = Hashtbl.create 8 and needle = "(*lint:" and n = String.length source in
  (* Does the needle from its [k]th character start at [i], on this line? *)
  let rec matches i k =
    k = String.length needle
    || i < n
       &&
       match source.[i] with
       | ' ' | '\t' -> matches (i + 1) k
       | c -> c = needle.[k] && matches (i + 1) (k + 1)
  in
  let line = ref 1 in
  String.iteri
    (fun i c -> if c = '\n' then incr line else if c = '(' && matches i 0 then Hashtbl.replace notes !line ())
    source;
  notes

let has_lint_note notes ~line =
  Hashtbl.mem notes line || Hashtbl.mem notes (line - 1)
