(* Abstract syntax for the XPath subset used by the advisor.

   Paths are sequences of steps along the child or descendant axis, with name
   tests that are labels, wildcards or attributes.  Steps may carry predicates:
   existence of a relative path, or a comparison between a relative path (or
   the step itself, when the relative path is empty) and a literal. *)

type axis =
  | Child        (* / *)
  | Descendant   (* // *)

type name_test =
  | Name of string
  | Wildcard

type node_test =
  | Elem of name_test
  | Attr of name_test

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type literal =
  | String_lit of string
  | Number_lit of float

type step = {
  axis : axis;
  test : node_test;
  predicates : predicate list;
}

and predicate =
  | Exists of step list                       (* [a/b] *)
  | Compare of step list * cmp * literal      (* [a/b > 4.5]; [] path means self: [. > 4.5] *)

type path = step list

let equal_axis a b =
  match a, b with
  | Child, Child | Descendant, Descendant -> true
  | Child, Descendant | Descendant, Child -> false

let equal_name_test a b =
  match a, b with
  | Name x, Name y -> String.equal x y
  | Wildcard, Wildcard -> true
  | Name _, Wildcard | Wildcard, Name _ -> false

let equal_node_test a b =
  match a, b with
  | Elem x, Elem y | Attr x, Attr y -> equal_name_test x y
  | Elem _, Attr _ | Attr _, Elem _ -> false

let equal_literal a b =
  match a, b with
  | String_lit x, String_lit y -> String.equal x y
  | Number_lit x, Number_lit y -> Float.equal x y
  | String_lit _, Number_lit _ | Number_lit _, String_lit _ -> false

let rec equal_step a b =
  equal_axis a.axis b.axis
  && equal_node_test a.test b.test
  && List.length a.predicates = List.length b.predicates
  && List.for_all2 equal_predicate a.predicates b.predicates

and equal_predicate a b =
  match a, b with
  | Exists p, Exists q -> equal_path p q
  | Compare (p, c, l), Compare (q, c', l') ->
      equal_path p q && c = c' && equal_literal l l'
  | Exists _, Compare _ | Compare _, Exists _ -> false

and equal_path a b =
  List.length a = List.length b && List.for_all2 equal_step a b

let has_predicates path = List.exists (fun s -> s.predicates <> []) path

let eval_cmp_int c n =
  match c with
  | Eq -> n = 0
  | Ne -> n <> 0
  | Lt -> n < 0
  | Le -> n <= 0
  | Gt -> n > 0
  | Ge -> n >= 0

(* Numeric coercion of node values: [float_of_string_opt (String.trim v)],
   bit for bit, without a C call or an allocation in the common cases.

   Node values are mostly plain decimals: an optional minus sign, digits,
   and optionally a point and more digits.  With at most 15 digits in all,
   the digits read as an integer and the power of ten are exact doubles,
   so one division rounds exactly as [float_of_string] does.
   [plain_decimal v] packs such a value's digits, digits after the point and
   sign into an int (a float result would be boxed), or is -1. *)
let plain_decimal value =
  let n = String.length value in
  let start = if n > 0 && value.[0] = '-' then 1 else 0 in
  let i = ref start and digits = ref 0 and point = ref (-1) and mantissa = ref 0 in
  while !i < n do
    (match value.[!i] with
    | '0' .. '9' as c ->
        mantissa := (10 * !mantissa) + Char.code c - Char.code '0';
        incr digits
    | '.' when !point < 0 && !digits > 0 -> point := !i
    | _ -> i := n + 1);
    incr i
  done;
  let fraction = if !point < 0 then 0 else n - 1 - !point in
  if !i = n && !digits <= 15 && (!point < 0 || fraction > 0) && !digits > 0
  then (!mantissa lsl 6) lor (fraction lsl 1) lor start
  else -1

(* Read-only: 10^0 to 10^15, each an exact double. *)
let powers_of_ten =
  [| 1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12; 1e13; 1e14; 1e15 |]
[@@lint.allow "D001"]

let[@inline] plain_value code =
  let v = float_of_int (code lsr 6) /. powers_of_ten.((code lsr 1) land 31) in
  if code land 1 = 1 then -.v else v

(* Anything else goes to [float_of_string], but only when it could start a
   number: past the blanks [strtod] skips ([String.trim]'s and ['\011']) and
   the underscores [float_of_string] drops, a digit, a sign, a point, or the
   first letter of [inf] or [nan].  Any other value would only make
   [float_of_string] raise [Failure]. *)
let other_number value =
  let n = String.length value in
  let i = ref 0 in
  while
    !i < n
    && match value.[!i] with ' ' | '\t' | '\n' | '\011' | '\012' | '\r' | '_' -> true | _ -> false
  do
    incr i
  done;
  if
    !i < n
    && match value.[!i] with
       | '0' .. '9' | '+' | '-' | '.' | 'i' | 'I' | 'n' | 'N' -> true
       | _ -> false
  then float_of_string_opt (String.trim value)
  else None

type number = { mutable number : float }

let read_number cell value =
  let code = plain_decimal value in
  if code >= 0 then begin
    cell.number <- plain_value code;
    true
  end
  else
    match other_number value with
    | Some v ->
        cell.number <- v;
        true
    | None -> false

(* Comparison semantics: a numeric literal coerces the node value to a number
   (no match if the coercion fails); a string literal compares lexically. *)
let literal_matches value cmp literal =
  match literal with
  | Number_lit x -> (
      let code = plain_decimal value in
      if code >= 0 then eval_cmp_int cmp (Float.compare (plain_value code) x)
      else
        match other_number value with
        | None -> false
        | Some v -> eval_cmp_int cmp (Float.compare v x))
  | String_lit s -> eval_cmp_int cmp (String.compare value s)
