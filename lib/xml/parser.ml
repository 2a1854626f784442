(* Recursive-descent XML parser over the shared Scan cursor.

   Supports elements, attributes, text, entity and character references,
   CDATA sections, comments and processing instructions/declarations.  This
   is not a validating parser; it accepts the well-formed subset needed for
   benchmark data.

   A parse allocates only what the tree keeps.  Names, text runs and quoted
   values are read by loops in this module that test characters directly: a
   call into Scan is never inlined, so a per-character predicate passed
   there costs an indirect call per character.  A run or value read in one
   piece is one [String.sub] of the input.  Each document has one [Buffer],
   shared by every text run and attribute value made of several pieces
   (references, CDATA, text on both sides of a comment); text is flushed
   before each child element and before each closing tag, so the buffer is
   empty whenever an element starts.  Closing tags are compared in place,
   and child and attribute lists are built in order. *)

(* A document being parsed.  The text run read so far is [buf] followed by
   the [len] input bytes at [start]: the run's latest plain piece, copied
   into [buf] only when another piece follows it. *)
type t = {
  st : Scan.t;
  buf : Buffer.t;
  mutable start : int;
  mutable len : int;
}

let is_name_start = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
  | _ -> false

let is_name_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' | '0' .. '9' | '-' | '.' -> true
  | _ -> false

let rec name_end s i =
  if i < String.length s && is_name_char (String.unsafe_get s i) then name_end s (i + 1) else i

(* The end of the name at the cursor; fails "expected a name" when none
   starts there. *)
let name_at (st : Scan.t) =
  if st.pos >= String.length st.input || not (is_name_start st.input.[st.pos]) then
    Scan.fail st "expected a name";
  name_end st.input (st.pos + 1)

let name (st : Scan.t) =
  let start = st.pos in
  let stop = name_at st in
  st.pos <- stop;
  String.sub st.input start (stop - start)

(* The first index from [i] on that holds [a] or [b], or the input's end. *)
let rec find2 s i a b =
  if i >= String.length s then i
  else
    let c = String.unsafe_get s i in
    if c = a || c = b then i else find2 s (i + 1) a b

(* Whether [t] is at [i] in [s]. *)
let rec same s i t k =
  k = String.length t || (String.unsafe_get s (i + k) = String.unsafe_get t k && same s i t (k + 1))

(* Whether the input between [first] and [stop] is [name]. *)
let named s first stop name = stop - first = String.length name && same s first name 0

let rec all_space s i stop = i >= stop || (Scan.is_space (String.unsafe_get s i) && all_space s (i + 1) stop)

let digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> 16

(* The value of the base-[base] digits in [i, stop) (0 when there are
   none), or -1 when one is not such a digit.  A value past 0x10FFFF stops
   growing, so nothing overflows. *)
let rec code_point s i stop base code =
  if i = stop then code
  else
    let d = digit (String.unsafe_get s i) in
    if d >= base then -1
    else code_point s (i + 1) stop base (if code > 0x10FFFF then code else (code * base) + d)

(* Decode the reference at the cursor (on '&') into [buf].  Character
   references follow XML 1.0: [&#DDD;] or [&#xHHH;], encoded as UTF-8; 0,
   the surrogates and code points above 0x10FFFF are errors. *)
let reference (st : Scan.t) buf =
  let s = st.input in
  let first = st.pos + 1 in
  let semi = find2 s first ';' ';' in
  st.pos <- semi;
  if semi >= String.length s then Scan.fail st "unterminated entity reference";
  st.pos <- semi + 1;
  if named s first semi "amp" then Buffer.add_char buf '&'
  else if named s first semi "lt" then Buffer.add_char buf '<'
  else if named s first semi "gt" then Buffer.add_char buf '>'
  else if named s first semi "quot" then Buffer.add_char buf '"'
  else if named s first semi "apos" then Buffer.add_char buf '\''
  else if semi - first > 1 && s.[first] = '#' then begin
    let hex = s.[first + 1] = 'x' in
    let digits = if hex then first + 2 else first + 1 in
    let code = code_point s digits semi (if hex then 16 else 10) 0 in
    if code <= 0 || (code >= 0xD800 && code <= 0xDFFF) || code > 0x10FFFF then
      Scan.fail st "invalid character reference";
    Buffer.add_utf_8_uchar buf (Uchar.of_int code)
  end
  else Scan.fail st (Printf.sprintf "unknown entity &%s;" (String.sub s first (semi - first)))

(* The [len] input bytes at [start] join the text run. *)
let add_piece p start len =
  if len > 0 then begin
    if p.len > 0 then Buffer.add_substring p.buf p.st.input p.start p.len;
    p.start <- start;
    p.len <- len
  end

(* Move the run's latest piece into [buf]. *)
let settle p =
  if p.len > 0 then begin
    Buffer.add_substring p.buf p.st.input p.start p.len;
    p.len <- 0
  end

(* The text run, or [""] when it is whitespace only (formatting noise
   between elements, tested after decoding); the run is left empty. *)
let take_text p =
  if Buffer.length p.buf = 0 then begin
    let s = p.st.input and start = p.start and len = p.len in
    p.len <- 0;
    if all_space s start (start + len) then "" else String.sub s start len
  end
  else begin
    settle p;
    let text = Buffer.contents p.buf in
    Buffer.clear p.buf;
    if all_space text 0 (String.length text) then "" else text
  end

(* The rest of a quoted value, into [buf]; the cursor is on '&' or at the
   closing quote [q] or the end of input. *)
let rec rest_of_value (st : Scan.t) buf q =
  let s = st.input in
  if st.pos >= String.length s then Scan.fail st "unterminated attribute value"
  else if s.[st.pos] = '&' then begin
    reference st buf;
    let stop = find2 s st.pos q '&' in
    Buffer.add_substring buf s st.pos (stop - st.pos);
    st.pos <- stop;
    rest_of_value st buf q
  end
  else st.pos <- st.pos + 1

let attribute_value p =
  let st = p.st in
  let s = st.input in
  if st.pos >= String.length s || (s.[st.pos] <> '"' && s.[st.pos] <> '\'') then
    Scan.fail st "expected a quoted value";
  let q = s.[st.pos] in
  let first = st.pos + 1 in
  let stop = find2 s first q '&' in
  if stop < String.length s && s.[stop] = q then begin
    st.pos <- stop + 1;
    String.sub s first (stop - first)
  end
  else begin
    (* [buf] is empty: an element is starting. *)
    Buffer.add_substring p.buf s first (stop - first);
    st.pos <- stop;
    rest_of_value st p.buf q;
    let value = Buffer.contents p.buf in
    Buffer.clear p.buf;
    value
  end

let[@tail_mod_cons] rec attributes p =
  let st = p.st in
  Scan.skip_space st;
  if st.pos < String.length st.input && is_name_start st.input.[st.pos] then begin
    let name = name st in
    Scan.skip_space st;
    Scan.expect st "=";
    Scan.skip_space st;
    let value = attribute_value p in
    (name, value) :: attributes p
  end
  else []

(* After "</": the name, compared in place with [tag], then ">". *)
let close (st : Scan.t) tag =
  let start = st.pos in
  let stop = name_at st in
  if not (named st.input start stop tag) then
    raise
      (Scan.Fail
         ( start,
           Printf.sprintf "mismatched closing tag </%s> for <%s>"
             (String.sub st.input start (stop - start))
             tag ));
  st.pos <- stop;
  Scan.skip_space st;
  Scan.expect st ">"

let rec skip_misc st =
  Scan.skip_space st;
  if Scan.looking_at st "<?" then (Scan.skip_past st "?>"; skip_misc st)
  else if Scan.looking_at st "<!--" then (Scan.skip_past st "-->"; skip_misc st)
  else if Scan.looking_at st "<!DOCTYPE" then (Scan.skip_past st ">"; skip_misc st)

let rec element p =
  let st = p.st in
  Scan.expect st "<";
  let tag = name st in
  let attrs = attributes p in
  if Scan.looking_at st "/>" then begin
    st.pos <- st.pos + 2;
    Types.Element { tag; attrs; children = [] }
  end
  else begin
    Scan.expect st ">";
    Types.Element { tag; attrs; children = content p tag }
  end

(* The children up to the closing tag of [tag], which is consumed. *)
and[@tail_mod_cons] content p tag =
  let st = p.st in
  let s = st.input in
  let stop = find2 s st.pos '<' '&' in
  add_piece p st.pos (stop - st.pos);
  st.pos <- stop;
  if stop >= String.length s then Scan.fail st (Printf.sprintf "unterminated element <%s>" tag)
  else if s.[stop] = '&' then begin
    settle p;
    reference st p.buf;
    content p tag
  end
  else
    (* A '<' that ends the input goes to [element], which reports the
       missing name. *)
    match if stop + 1 < String.length s then s.[stop + 1] else '<' with
    | '/' ->
        let text = take_text p in
        st.pos <- stop + 2;
        close st tag;
        if text = "" then [] else [ Types.Text text ]
    | '!' when Scan.looking_at st "<!--" ->
        Scan.skip_past st "-->";
        content p tag
    | '!' when Scan.looking_at st "<![CDATA[" ->
        let first = stop + String.length "<![CDATA[" in
        Scan.skip_past st "]]>";
        add_piece p first (st.pos - String.length "]]>" - first);
        content p tag
    | '?' ->
        Scan.skip_past st "?>";
        content p tag
    | _ ->
        let text = take_text p in
        let child = element p in
        if text = "" then child :: content p tag else Types.Text text :: child :: content p tag

let document st =
  skip_misc st;
  let root = element { st; buf = Buffer.create 64; start = 0; len = 0 } in
  skip_misc st;
  root

let parse input =
  Scan.run input (fun st ->
      let root = document st in
      Scan.finish st;
      root)

let parse_exn = Scan.unwrap parse
