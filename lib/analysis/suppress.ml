(* Suppression machinery, two forms, both in the source:

   1. Attributes: [@lint.allow "D001"] on an expression, or
      [@@lint.allow "D001"] on a value binding / structure item.  The payload
      is one string of whitespace/comma-separated check IDs.

   2. H002's "(* lint: reason *)" note on the line of a partial-function
      site or the line above it. *)

let split_ws s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun t -> t <> "")

(* --- in-source suppression helpers ------------------------------------- *)

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
      if String.equal a.attr_name.txt "lint.allow" then ids_of_payload a.attr_payload
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
