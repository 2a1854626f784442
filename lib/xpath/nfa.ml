(* NFA machinery for linear XPath patterns.

   A linear pattern (steps over child/descendant axes with name, wildcard or
   attribute tests) denotes a language of rooted label paths: words over the
   alphabet of element labels and attribute labels (spelled "@name").  A child
   step consumes exactly one matching label; a descendant step consumes any
   number of arbitrary labels followed by one matching label.

   Containment of two such languages is decided exactly by working over the
   finite alphabet of labels mentioned in either pattern plus two fresh
   symbols - one standing for "any other element label" and one for "any other
   attribute label".  Substituting any concrete unseen label for the fresh
   symbol (and vice versa) cannot change acceptance by either automaton, so
   containment over this finite alphabet coincides with containment over the
   infinite label alphabet. *)

type step = Ast.axis * Ast.node_test

type t = {
  steps : step array;
  desc_mask : int;  (* bit i set iff step i uses the descendant axis *)
}

let of_steps steps =
  let steps = Array.of_list steps in
  if Array.length steps > 60 then invalid_arg "Nfa.of_steps: pattern too long";
  let desc_mask = ref 0 in
  Array.iteri
    (fun i (axis, _) -> if axis = Ast.Descendant then desc_mask := !desc_mask lor (1 lsl i))
    steps;
  { steps; desc_mask = !desc_mask }

(* Fresh symbols for "any element label not mentioned" / "any attribute label
   not mentioned".  '\000' cannot start a parsed name. *)
let other_elem = "\000e"
let other_attr = "\000@"

let is_attr_symbol sym =
  String.length sym > 0 && (sym.[0] = '@' || String.equal sym other_attr)

let test_matches test sym =
  match test with
  | Ast.Elem Ast.Wildcard -> not (is_attr_symbol sym)
  | Ast.Elem (Ast.Name n) -> String.equal sym n
  | Ast.Attr Ast.Wildcard -> is_attr_symbol sym
  | Ast.Attr (Ast.Name n) ->
      String.length sym > 0 && sym.[0] = '@'
      && String.equal (String.sub sym 1 (String.length sym - 1)) n

(* State sets are bitsets over states 0..n where n = #steps; state i means
   "the first i steps have been matched". *)

let initial = 1

let accepting nfa set = set land (1 lsl Array.length nfa.steps) <> 0

(* Batch stepping: one advance is two bitwise ops once the per-symbol match
   mask is known.  States with a pending descendant step self-loop
   ([desc_mask]); states whose step's test matches the symbol shift up one. *)

let desc_mask nfa = nfa.desc_mask

let match_mask nfa sym =
  let n = Array.length nfa.steps in
  let mask = ref 0 in
  for i = 0 to n - 1 do
    let _, test = nfa.steps.(i) in
    if test_matches test sym then mask := !mask lor (1 lsl i)
  done;
  !mask

let advance_masks ~desc ~matches set = (set land desc) lor ((set land matches) lsl 1)

let advance nfa set sym =
  advance_masks ~desc:nfa.desc_mask ~matches:(match_mask nfa sym) set

let rec run nfa set = function
  | [] -> set
  | sym :: rest -> run nfa (advance nfa set sym) rest

let accepts nfa word = accepting nfa (run nfa initial word)

let names_of_steps steps =
  List.fold_left
    (fun acc (_, test) ->
      match test with
      | Ast.Elem (Ast.Name n) -> n :: acc
      | Ast.Attr (Ast.Name n) -> ("@" ^ n) :: acc
      | Ast.Elem Ast.Wildcard | Ast.Attr Ast.Wildcard -> acc)
    [] steps

(* [contained sub sup]: L(sub) ⊆ L(sup)?  Breadth-first search over pairs of
   subset-states, looking for a reachable pair where [sub] accepts and [sup]
   does not. *)
let contained sub sup =
  let alphabet =
    let names =
      List.sort_uniq String.compare
        (names_of_steps (Array.to_list sub.steps)
        @ names_of_steps (Array.to_list sup.steps))
    in
    other_elem :: other_attr :: names
  in
  let visited = Hashtbl.create 64 in
  let queue = Queue.create () in
  let push pair =
    if not (Hashtbl.mem visited pair) then begin
      Hashtbl.add visited pair ();
      Queue.add pair queue
    end
  in
  push (initial, initial);
  let bad = ref false in
  while (not !bad) && not (Queue.is_empty queue) do
    let a, b = Queue.pop queue in
    if accepting sub a && not (accepting sup b) then bad := true
    else
      List.iter
        (fun sym ->
          let a' = advance sub a sym in
          if a' <> 0 then push (a', advance sup b sym))
        alphabet
  done;
  not !bad
