(* Linear index patterns.

   An index pattern is a predicate-free linear path, e.g. /Security/Yield,
   /Security//*, //Yield, /Order/@ID.  These are the objects the advisor
   enumerates, generalizes and recommends.  Coverage between patterns (and
   matching against concrete data paths) is decided exactly via Nfa. *)

type step = {
  axis : Ast.axis;
  test : Ast.node_test;
}

type t = step list

let of_path (path : Ast.path) : t =
  List.map (fun (s : Ast.step) -> { axis = s.axis; test = s.test }) path

let to_path (p : t) : Ast.path =
  List.map (fun s -> { Ast.axis = s.axis; test = s.test; predicates = [] }) p

let to_string p = Printer.path_to_string (to_path p)

let pp ppf p = Fmt.string ppf (to_string p)

let of_string_result s =
  match Parser.parse s with
  | Ok path when Ast.has_predicates path ->
      (* Point at the first predicate. *)
      Error
        {
          Xia_xml.Scan.source = "";
          line = 1;
          column = String.index s '[' + 1;
          message = "index patterns cannot contain predicates";
        }
  | Ok path -> Ok (of_path path)
  | Error e -> Error e

let of_string s = Xia_xml.Scan.unwrap of_string_result s

let equal_step a b = Ast.equal_axis a.axis b.axis && Ast.equal_node_test a.test b.test

let equal a b = List.length a = List.length b && List.for_all2 equal_step a b

let compare a b = String.compare (to_string a) (to_string b)

(* Canonical key for hashing; patterns print unambiguously. *)
let key = to_string

let universal = [ { axis = Ast.Descendant; test = Ast.Elem Ast.Wildcard } ]

let universal_attr = [ { axis = Ast.Descendant; test = Ast.Attr Ast.Wildcard } ]

(* Interned pattern ids.  Interning is structural (over the step list), so
   obtaining a pattern's id never rebuilds its string key; everything
   downstream — the NFA table, the coverage table, path-matching memos,
   benefit fingerprints — indexes or hashes the int instead.  Ids identify
   patterns only; every user-visible ordering stays on the printable key. *)
let interner : t Interner.t = Interner.create ~equal ()

let id p = Interner.intern interner p

(* Both memo tables are indexed by pattern id ([Interner.Dense],
   [Interner.Pairs]); a hit allocates nothing. *)
let nfas : Nfa.t Interner.Dense.t = Interner.Dense.create ()

let compile () pid =
  Nfa.of_steps (List.map (fun s -> (s.axis, s.test)) (Interner.value interner pid))

let nfa_of_id pid = Interner.Dense.find_or_compute nfas pid compile ()

let nfa_of p = nfa_of_id (id p)

(* The coverage table: cell (general, specific) of a dense byte matrix. *)
let coverage = Interner.Pairs.create ()

let contained general specific = Nfa.contained (nfa_of_id specific) (nfa_of_id general)

(* [covers ~general ~specific]: every node reachable by [specific] is also
   reachable by [general] (in any document). *)
let covers_id ~general ~specific =
  Interner.Pairs.find_or_compute coverage general specific contained

let covers ~general ~specific = covers_id ~general:(id general) ~specific:(id specific)

(* The paper's rewrite rule 0: any middle step that is a child- or
   descendant-axis wildcard is dropped and the following step's axis becomes
   descendant.  /a/*/b -> /a//b; /a/*/*/b -> /a//b.  The last step is kept
   as-is.  The rewrite can only generalize the language. *)
let rewrite_middle_wildcards (p : t) : t =
  let rec loop = function
    | [] -> []
    | [ last ] -> [ last ]
    | { test = Ast.Elem Ast.Wildcard; _ } :: (_ :: _ as rest) -> (
        match loop rest with
        | next :: tail -> { next with axis = Ast.Descendant } :: tail
        | [] -> assert false (* lint: [loop] never maps a non-empty list to [] *))
    | s :: rest -> s :: loop rest
  in
  (* Collapse runs of descendant wildcards too: //*//b is just //b when the
     wildcard is in the middle. *)
  loop p

(* Rough specificity measure used to order candidates deterministically:
   named child steps are most specific. *)
let specificity p =
  List.fold_left
    (fun acc s ->
      let axis_w = match s.axis with Ast.Child -> 2 | Ast.Descendant -> 0 in
      let test_w =
        match s.test with
        | Ast.Elem (Ast.Name _) | Ast.Attr (Ast.Name _) -> 3
        | Ast.Elem Ast.Wildcard | Ast.Attr Ast.Wildcard -> 0
      in
      acc + axis_w + test_w)
    0 p
