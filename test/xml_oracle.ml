(* The XML parser Xia_xml.Parser replaced, kept as the differential oracle.

   Every text run and attribute value goes through a fresh Buffer, each
   element's content loop is a closure over its own buffer and a ref to its
   reversed child list, and names, runs and entity names are read with
   Scan's closure-taking primitives.  Slow, but each grammar rule reads as
   written.  Its character references follow XML 1.0: [&#DDD;] and
   [&#xHHH;] only, encoded as UTF-8, with 0, the surrogates and anything
   above 0x10FFFF rejected. *)

module Scan = Xia_xml.Scan
module Types = Xia_xml.Types

let is_name_start = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
  | _ -> false

let is_name_char c =
  is_name_start c || (match c with '0' .. '9' | '-' | '.' -> true | _ -> false)

let name st = Scan.name st is_name_start is_name_char

let digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> 16

(* The code point of a character reference's name ("#65", "#x41"), or -1
   when a character after the prefix is not a digit of its base.  No digits
   read as 0, which is rejected too.  A value past 0x10FFFF stops growing,
   so no digit string overflows. *)
let char_ref name =
  let hex = String.length name > 1 && name.[1] = 'x' in
  let first = if hex then 2 else 1 in
  let digits = String.sub name first (String.length name - first) in
  let base = if hex then 16 else 10 in
  if String.exists (fun c -> digit c >= base) digits then -1
  else
    String.fold_left
      (fun code c -> if code > 0x10FFFF then code else (code * base) + digit c)
      0 digits

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
      if String.length name > 1 && name.[0] = '#' then begin
        let code = char_ref name in
        if code <= 0 || (code >= 0xD800 && code <= 0xDFFF) || code > 0x10FFFF then
          Scan.fail st "invalid character reference";
        let buf = Buffer.create 4 in
        Buffer.add_utf_8_uchar buf (Uchar.of_int code);
        Buffer.contents buf
      end
      else Scan.fail st (Printf.sprintf "unknown entity &%s;" name)

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
