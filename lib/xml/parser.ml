(* Recursive-descent XML parser over the shared Scan cursor.

   Supports elements, attributes, text, entity references, CDATA sections,
   comments and processing instructions/declarations.  This is not a validating
   parser; it accepts the well-formed subset needed for benchmark data.  Names,
   text runs and attribute values are read with Scan's bulk primitives: the
   per-character loops stay inside Scan. *)

let is_name_start = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
  | _ -> false

let is_name_char c =
  is_name_start c || (match c with '0' .. '9' | '-' | '.' -> true | _ -> false)

let name st = Scan.name st is_name_start is_name_char

let decode_entity (st : Scan.t) =
  (* Called with pos on '&'. *)
  Scan.advance st;
  let name = Scan.take_while st (fun c -> c <> ';') in
  if Scan.eof st then Scan.fail st "unterminated entity reference";
  Scan.advance st;
  match name with
  | "amp" -> "&"
  | "lt" -> "<"
  | "gt" -> ">"
  | "quot" -> "\""
  | "apos" -> "'"
  | _ ->
      let code =
        if String.length name > 1 && name.[0] = '#' then
          int_of_string_opt
            (if name.[1] = 'x' || name.[1] = 'X' then "0x" ^ String.sub name 2 (String.length name - 2)
             else String.sub name 1 (String.length name - 1))
        else Scan.fail st (Printf.sprintf "unknown entity &%s;" name)
      in
      match code with
      | Some code when code >= 0 -> if code < 0x80 then String.make 1 (Char.chr code) else "?"
      | _ -> Scan.fail st "invalid character reference"

(* Append the characters [plain] accepts, and the entity references among
   them, to [buf]; [plain] rejects '&'. *)
let rec text (st : Scan.t) plain buf =
  let start = st.pos in
  Scan.skip_while st plain;
  Buffer.add_substring buf st.input start (st.pos - start);
  if Scan.looking_at st "&" then begin
    Buffer.add_string buf (decode_entity st);
    text st plain buf
  end

(* Text runs of content and of the two kinds of attribute value, as closed
   functions: a run costs no allocation. *)
let content_char c = c <> '<' && c <> '&'
let double_quoted_char c = c <> '"' && c <> '&'
let single_quoted_char c = c <> '\'' && c <> '&'

let attribute_value st =
  match Scan.peek st with
  | Some (('"' | '\'') as q) ->
      Scan.advance st;
      let buf = Buffer.create 16 in
      text st (if q = '"' then double_quoted_char else single_quoted_char) buf;
      if Scan.eof st then Scan.fail st "unterminated attribute value";
      Scan.advance st;
      Buffer.contents buf
  | _ -> Scan.fail st "expected a quoted value"

let rec attributes st acc =
  Scan.skip_space st;
  match Scan.peek st with
  | Some c when is_name_start c ->
      let name = name st in
      Scan.skip_space st;
      Scan.expect st "=";
      Scan.skip_space st;
      let value = attribute_value st in
      attributes st ((name, value) :: acc)
  | _ -> List.rev acc

let rec skip_misc st =
  Scan.skip_space st;
  if Scan.looking_at st "<?" then (Scan.skip_past st "?>"; skip_misc st)
  else if Scan.looking_at st "<!--" then (Scan.skip_past st "-->"; skip_misc st)
  else if Scan.looking_at st "<!DOCTYPE" then (Scan.skip_past st ">"; skip_misc st)

let rec element st =
  Scan.expect st "<";
  let tag = name st in
  let attrs = attributes st [] in
  Scan.skip_space st;
  if Scan.looking_at st "/>" then begin
    Scan.expect st "/>";
    Types.Element { tag; attrs; children = [] }
  end
  else begin
    Scan.expect st ">";
    let children = content st tag in
    Types.Element { tag; attrs; children }
  end

and content (st : Scan.t) tag =
  let buf = Buffer.create 16 in
  let children = ref [] in
  let flush_text () =
    let s = Buffer.contents buf in
    Buffer.clear buf;
    (* Whitespace-only runs between elements are formatting noise. *)
    if String.exists (fun c -> not (Scan.is_space c)) s then
      children := Types.Text s :: !children
  in
  let rec loop () =
    text st content_char buf;
    if Scan.eof st then Scan.fail st (Printf.sprintf "unterminated element <%s>" tag)
    else if Scan.looking_at st "</" then begin
      flush_text ();
      Scan.expect st "</";
      let closing = name st in
      if not (String.equal closing tag) then
        raise
          (Scan.Fail
             ( st.pos - String.length closing,
               Printf.sprintf "mismatched closing tag </%s> for <%s>" closing tag ));
      Scan.skip_space st;
      Scan.expect st ">"
    end
    else if Scan.looking_at st "<!--" then (Scan.skip_past st "-->"; loop ())
    else if Scan.looking_at st "<![CDATA[" then begin
      let start = st.pos + String.length "<![CDATA[" in
      Scan.skip_past st "]]>";
      Buffer.add_substring buf st.input start (st.pos - start - 3);
      loop ()
    end
    else if Scan.looking_at st "<?" then (Scan.skip_past st "?>"; loop ())
    else begin
      flush_text ();
      children := element st :: !children;
      loop ()
    end
  in
  loop ();
  List.rev !children

let document st =
  skip_misc st;
  let root = element st in
  skip_misc st;
  root

let parse input =
  Scan.run input (fun st ->
      let root = document st in
      Scan.finish st;
      root)

let parse_exn = Scan.unwrap parse
