(* Parser for the XPath subset, over the shared Scan cursor.

   Grammar (whitespace allowed around tokens inside predicates):

     absolute  ::= ('/' | '//') step (('/' | '//') step)*
     relative  ::= step (('/' | '//') step)*        (first axis is Child)
     step      ::= nametest predicate*
     nametest  ::= NAME | '*' | '@' NAME | '@' '*'
     predicate ::= '[' rel-or-self (CMP literal)? ']'
     rel-or-self ::= '.' | relative
     CMP       ::= '=' | '!=' | '<' | '<=' | '>' | '>='
     literal   ::= NUMBER | '"' chars '"' | '\'' chars '\'' *)

module Scan = Xia_xml.Scan

let is_name_start = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' -> true
  | _ -> false

let is_name_char c =
  is_name_start c || (match c with '0' .. '9' | '-' | '.' | ':' -> true | _ -> false)

let is_digit = function '0' .. '9' -> true | _ -> false

let name st = Scan.name st is_name_start is_name_char

let axis st =
  (* At the start of an absolute path or between steps. *)
  if Scan.looking_at st "//" then (Scan.expect st "//"; Ast.Descendant)
  else (Scan.expect st "/"; Ast.Child)

let name_test st =
  match Scan.peek st with
  | Some '*' -> Scan.advance st; Ast.Elem Ast.Wildcard
  | Some '@' ->
      Scan.advance st;
      if Scan.looking_at st "*" then (Scan.advance st; Ast.Attr Ast.Wildcard)
      else Ast.Attr (Ast.Name (name st))
  | _ -> Ast.Elem (Ast.Name (name st))

let number (st : Scan.t) =
  let start = st.pos in
  if Scan.looking_at st "-" then Scan.advance st;
  let digits = st.pos in
  Scan.skip_while st is_digit;
  if
    Scan.looking_at st "."
    && st.pos + 1 < String.length st.input
    && is_digit st.input.[st.pos + 1]
  then (Scan.advance st; Scan.skip_while st is_digit);
  if st.pos = digits then Scan.fail st "expected a number";
  float_of_string (String.sub st.input start (st.pos - start))

let literal st =
  match Scan.peek st with
  | Some ('"' | '\'') -> Ast.String_lit (Scan.quoted st)
  | Some ('0' .. '9' | '-') -> Ast.Number_lit (number st)
  | _ -> Scan.fail st "expected a literal"

let comparison st =
  let two_char op op_eq =
    Scan.advance st;
    if Scan.looking_at st "=" then (Scan.advance st; op_eq) else op
  in
  match Scan.peek st with
  | Some '=' -> Scan.advance st; Some Ast.Eq
  | Some '!' -> Scan.advance st; Scan.expect st "="; Some Ast.Ne
  | Some '<' -> Some (two_char Ast.Lt Ast.Le)
  | Some '>' -> Some (two_char Ast.Gt Ast.Ge)
  | _ -> None

let rec step st axis =
  let test = name_test st in
  { Ast.axis; test; predicates = predicates st [] }

and predicates st acc =
  if Scan.looking_at st "[" then begin
    Scan.advance st;
    Scan.skip_space st;
    let rel = if Scan.looking_at st "." then (Scan.advance st; []) else relative st in
    Scan.skip_space st;
    let pred =
      if Scan.looking_at st "]" then Ast.Exists rel
      else
        match comparison st with
        | None -> Scan.fail st "expected a comparison operator"
        | Some cmp ->
            Scan.skip_space st;
            Ast.Compare (rel, cmp, literal st)
    in
    Scan.skip_space st;
    Scan.expect st "]";
    predicates st (pred :: acc)
  end
  else List.rev acc

and relative st =
  (* First step has an implicit Child axis (or Descendant for a leading //). *)
  let first = step st (if Scan.looking_at st "/" then axis st else Ast.Child) in
  rest st [ first ]

and rest st acc =
  if Scan.looking_at st "/" then
    let axis = axis st in
    rest st (step st axis :: acc)
  else List.rev acc

let absolute st =
  let axis = axis st in
  rest st [ step st axis ]

let whole path input =
  Scan.run input (fun st ->
      let p = path st in
      Scan.finish st;
      p)

let parse = whole absolute
let parse_relative_path = whole relative
let parse_exn = Scan.unwrap parse
let parse_relative_exn = Scan.unwrap parse_relative_path
