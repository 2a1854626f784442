(* The shared scanner: a cursor, the lexing primitives every parser uses, and
   the one located error.  Errors carry a byte offset while scanning; line
   and column are derived from it once, when the error leaves [run]. *)

type t = {
  input : string;
  mutable pos : int;
}

exception Fail of int * string

type error = {
  source : string;
  line : int;
  column : int;
  message : string;
}

let to_string e =
  let pos = if e.line > 0 then Printf.sprintf "%d:%d" e.line e.column else "" in
  match (e.source, pos) with
  | "", "" -> e.message
  | s, "" | "", s -> s ^ ": " ^ e.message
  | s, p -> Printf.sprintf "%s:%s: %s" s p e.message

let error source message = { source; line = 0; column = 0; message }

let locate input at message =
  let line = ref 1 and start = ref 0 in
  for i = 0 to min at (String.length input) - 1 do
    if input.[i] = '\n' then (incr line; start := i + 1)
  done;
  { source = ""; line = !line; column = at - !start + 1; message }

let run input parse =
  try Ok (parse { input; pos = 0 }) with Fail (at, message) -> Error (locate input at message)

let unwrap parse input =
  match parse input with
  | Ok v -> v
  | Error e when e.source = "" -> invalid_arg (Printf.sprintf "%S: %s" input (to_string e))
  | Error e -> invalid_arg (to_string e)

let fail st message = raise (Fail (st.pos, message))

let eof st = st.pos >= String.length st.input
let peek st = if st.pos < String.length st.input then Some st.input.[st.pos] else None
let advance st = st.pos <- st.pos + 1

(* Top-level rather than a local closure, so a match allocates nothing. *)
let rec same_from input i s k =
  k = String.length s || (input.[i + k] = s.[k] && same_from input i s (k + 1))

let matches_at st i s = i + String.length s <= String.length st.input && same_from st.input i s 0

let looking_at st s = matches_at st st.pos s

let expect st s =
  if looking_at st s then st.pos <- st.pos + String.length s
  else fail st (Printf.sprintf "expected %S" s)

let skip_past st s =
  let rec from i =
    match String.index_from_opt st.input i s.[0] with
    | Some j when matches_at st j s -> st.pos <- j + String.length s
    | Some j -> from (j + 1)
    | None ->
        st.pos <- String.length st.input;
        fail st (Printf.sprintf "expected %S before end of input" s)
  in
  from st.pos

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let skip_while st p =
  let n = String.length st.input in
  let i = ref st.pos in
  while !i < n && p (String.unsafe_get st.input !i) do incr i done;
  st.pos <- !i

let skip_space st = skip_while st is_space

let token st s =
  skip_space st;
  expect st s

let take_while st p =
  let start = st.pos in
  skip_while st p;
  String.sub st.input start (st.pos - start)

let name st is_start is_char =
  if eof st || not (is_start st.input.[st.pos]) then fail st "expected a name";
  let start = st.pos in
  advance st;
  skip_while st is_char;
  String.sub st.input start (st.pos - start)

let quoted st =
  let q = st.input.[st.pos] in
  advance st;
  let s = take_while st (fun c -> c <> q) in
  if eof st then fail st "unterminated string literal";
  advance st;
  s

let word st is_word =
  skip_space st;
  let s = take_while st is_word in
  if s = "" then fail st "expected an identifier";
  s

let keyword st ~fold is_word kw =
  skip_space st;
  let p = st.pos and e = st.pos + String.length kw in
  if
    e <= String.length st.input
    && (if fold then String.uppercase_ascii (String.sub st.input p (e - p)) = kw
        else same_from st.input p kw 0)
    && (e = String.length st.input || not (is_word st.input.[e]))
  then (st.pos <- e; true)
  else false

let expect_keyword st ~fold is_word kw =
  if not (keyword st ~fold is_word kw) then fail st (Printf.sprintf "expected keyword %S" kw)

let finish st =
  skip_space st;
  if not (eof st) then fail st "trailing characters"
