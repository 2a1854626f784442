(* XPath evaluation over packed documents.

   Elements are ranks into the document's preorder arrays: the children of
   [e] are found by hopping over subtrees ([last c + 1]), its descendants
   are the ranks [e + 1 .. last e], and the attributes of a subtree are
   one contiguous slot range.  The document node is rank [-1], whose only
   child is the root and whose subtree is every element.  Name tests are
   compiled to label ids, so testing a node compares two integers.

   The columns are decoded here, not through [Packed]'s accessors: the
   default build compiles with [-opaque], so a call into another module is
   never inlined, and the evaluator reads a label or a subtree end at every
   node it visits.  The decoding follows the layout in packed.mli: an
   element's word holds its label id in bits 0-30 and its subtree end in
   bits 31-61; the attribute columns are little-endian 32-bit entries,
   empty in a document without attributes.

   A path is followed depth first, one context at a time.  The result is
   the nodes the last step reaches, in the order the steps reach them and
   without duplicates; counting them allocates nothing.

   Predicates only ask whether some node exists, so they are a depth-first
   existential search that stops at the first witness, with no duplicate
   removal (duplicates cannot change "exists"). *)

module P = Xia_xml.Packed
module T = Xia_xml.Types

type match_ = {
  id : T.node_id;
  value : string;
}

(* A name test is a label id; [any] is the wildcard, and a name the table
   has never seen compiles to [-1], which no label equals. *)
let any = -2

let name_ok name label = name = label || name = any

type step = {
  axis : Ast.axis;
  attribute : bool;
  name : int;
  predicates : predicate list;
}

and predicate = {
  rel : step list;
  goal : Ast.predicate;
}

let name_id labels = function
  | Ast.Wildcard -> any
  | Ast.Name s -> P.find_label labels s

let rec compile_step labels (s : Ast.step) =
  let attribute, test =
    match s.test with
    | Ast.Elem nt -> (false, nt)
    | Ast.Attr nt -> (true, nt)
  in
  {
    axis = s.axis;
    attribute;
    name = name_id labels test;
    predicates = List.map (predicate labels) s.predicates;
  }

and predicate labels p =
  match p with
  | Ast.Exists rel | Ast.Compare (rel, _, _) -> { rel = List.map (compile_step labels) rel; goal = p }

(* ---------- the columns ---------- *)

let tag (doc : P.t) j = doc.nodes.(j) land 0x7FFF_FFFF
let end_of (doc : P.t) j = doc.nodes.(j) lsr 31
let elements_of (doc : P.t) = Array.length doc.nodes

external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32"
external swap32 : int32 -> int32 = "%bswap_int32"
external big_endian : unit -> bool = "%big_endian"

let read32 column k =
  let v = get32 column (4 * k) in
  Int32.to_int (if big_endian () then swap32 v else v)

let attr_first (doc : P.t) e = if Bytes.length doc.attr_first = 0 then 0 else read32 doc.attr_first e
let attr_name (doc : P.t) k = read32 doc.attr_names k

(* ---------- ranges ---------- *)

let last doc e = if e < 0 then elements_of doc - 1 else end_of doc e

(* Slots of [e]'s own attributes, and the end of its subtree's slots. *)
let own_first doc e = if e < 0 then 0 else attr_first doc e
let own_end doc e = if e < 0 then 0 else attr_first doc (e + 1)
let subtree_end doc e = attr_first doc (last doc e + 1)

(* Attribute slots an attribute step reaches from [e]: its own, or along
   the descendant axis those of [e] and every element below it. *)
let attr_end doc (s : step) e =
  match s.axis with
  | Ast.Child -> own_end doc e
  | Ast.Descendant -> subtree_end doc e

(* ---------- predicates: existential search ---------- *)

(* [goal] is the predicate under test.  A node its relative path reaches is
   a witness for [Exists], and for [Compare] when its value compares true. *)
let goal_value goal v =
  match goal with
  | Ast.Exists _ -> true
  | Ast.Compare (_, cmp, lit) -> Ast.literal_matches v cmp lit

(* From an attribute, only the empty relative path reaches a node. *)
let holds_on_attr v p =
  match p.rel with
  | [] -> goal_value p.goal v
  | _ :: _ -> false

let rec all_hold_on_attr v = function
  | [] -> true
  | p :: ps -> holds_on_attr v p && all_hold_on_attr v ps

(* Does a node that [steps] reach from element [e] witness [goal]? *)
let rec reach (doc : P.t) goal e steps =
  match steps with
  | [] -> (
      match goal with
      | Ast.Exists _ -> true
      | Ast.Compare (_, cmp, lit) -> Ast.literal_matches doc.values.(e) cmp lit)
  | s :: rest ->
      if s.attribute then
        match rest with
        | _ :: _ -> false
        | [] -> attr_reach doc goal s (own_first doc e) (attr_end doc s e)
      else
        match s.axis with
        | Ast.Child -> child_reach doc goal s rest (e + 1) (last doc e)
        | Ast.Descendant -> desc_reach doc goal s rest (e + 1) (last doc e)

and child_reach doc goal s rest j stop =
  j <= stop
  && ((name_ok s.name (tag doc j) && all_hold doc j s.predicates && reach doc goal j rest)
     || child_reach doc goal s rest (end_of doc j + 1) stop)

and desc_reach doc goal s rest j stop =
  j <= stop
  && ((name_ok s.name (tag doc j) && all_hold doc j s.predicates && reach doc goal j rest)
     || desc_reach doc goal s rest (j + 1) stop)

and attr_reach doc goal s k stop =
  k < stop
  && ((name_ok s.name (attr_name doc k)
      && all_hold_on_attr doc.attr_values.(k) s.predicates
      && goal_value goal doc.attr_values.(k))
     || attr_reach doc goal s (k + 1) stop)

and all_hold doc e = function
  | [] -> true
  | p :: ps -> holds doc e p && all_hold doc e ps

and holds doc e p = reach doc p.goal e p.rel

(* ---------- paths: depth-first, one pass ---------- *)

(* What a path evaluation does with a reached node: count it if it is an
   element [keep] accepts, or collect it. *)
type mode =
  | Count
  | Collect

type path = {
  steps : step list;
  levels : int;  (* steps that may reach a node twice: 0, or all of them *)
  mutable mode : mode;
  mutable count : int;
  mutable found : int list;  (* reached nodes, last first *)
  mutable seen : int array;  (* [seen.(x) = stamp]: [x] already reached *)
  mutable stamp : int;
}

let path labels steps =
  let descendant (s : Ast.step) = s.axis = Ast.Descendant in
  {
    steps = List.map (compile_step labels) steps;
    levels = (if List.length (List.filter descendant steps) >= 2 then List.length steps else 0);
    mode = Count;
    count = 0;
    found = [];
    seen = [||];
    stamp = 0;
  }

(* Node ids: an element is its rank, the attribute in slot [k] is [k] plus
   the element count. *)
let node_count (doc : P.t) = elements_of doc + Array.length doc.attr_values

(* Has [x] been reached by step [level] before, in this evaluation? *)
let reached_before p doc level x =
  let i = (level * node_count doc) + x in
  p.seen.(i) = p.stamp
  || begin
       p.seen.(i) <- p.stamp;
       false
     end

(* The steps are followed depth first: everything reached through one
   context before the next context.  That visits the nodes the last step
   reaches in the order the steps reach them.  A node can be reached twice
   by one step only along the descendant axis, and only from contexts of
   which one lies below another; contexts are an antichain (none below
   another) until the first descendant step.  From the second descendant
   step on, a node reached again at the same step is skipped, with
   everything below it, so no node is visited twice. *)
let rec follow p keep (doc : P.t) level antichain e steps =
  match steps with
  | [] -> arrive p keep doc e
  | s :: rest ->
      let dedup = not (antichain || s.axis = Ast.Child) in
      let antichain = antichain && s.axis = Ast.Child in
      if s.attribute then (
        (* Nothing is below an attribute. *)
        match rest with
        | _ :: _ -> ()
        | [] ->
            let base = elements_of doc in
            for k = own_first doc e to attr_end doc s e - 1 do
              if name_ok s.name (attr_name doc k)
                 && all_hold_on_attr doc.attr_values.(k) s.predicates
                 && not (dedup && reached_before p doc level (base + k))
              then arrive p keep doc (base + k)
            done)
      else
        match s.axis with
        | Ast.Child ->
            let stop = last doc e in
            let j = ref (e + 1) in
            while !j <= stop do
              enter p keep doc level antichain dedup s rest !j;
              j := end_of doc !j + 1
            done
        | Ast.Descendant ->
            for j = e + 1 to last doc e do
              enter p keep doc level antichain dedup s rest j
            done

and enter p keep doc level antichain dedup s rest j =
  if name_ok s.name (tag doc j)
     && all_hold doc j s.predicates
     && not (dedup && reached_before p doc level j)
  then follow p keep doc (level + 1) antichain j rest

and arrive p keep doc x =
  match p.mode with
  | Count -> if x < elements_of doc && keep doc x then p.count <- p.count + 1
  | Collect -> p.found <- x :: p.found

(* Runs the path; the empty path reaches the root element. *)
let run p mode keep doc =
  p.mode <- mode;
  p.count <- 0;
  (match mode with Count -> () | Collect -> p.found <- []);
  p.stamp <- p.stamp + 1;
  let marks = p.levels * node_count doc in
  if Array.length p.seen < marks then p.seen <- Array.make (max marks (2 * Array.length p.seen)) 0;
  match p.steps with
  | [] -> arrive p keep doc 0
  | steps -> follow p keep doc 0 true (-1) steps

let any _ _ = true

(* The element owning attribute slot [k]: the last one whose first slot is
   at most [k]. *)
let owner (doc : P.t) k =
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi + 1) / 2 in
      if attr_first doc mid <= k then search mid hi else search lo (mid - 1)
  in
  search 0 (elements_of doc - 1)

let eval p (doc : P.t) =
  run p Collect any doc;
  let elements = elements_of doc in
  List.rev_map
    (fun x ->
      if x < elements then { id = { T.pre = x; attr = None }; value = doc.values.(x) }
      else
        let k = x - elements in
        let e = owner doc k in
        { id = { T.pre = e; attr = Some (k - attr_first doc e) }; value = doc.attr_values.(k) })
    p.found

let elements p doc =
  List.filter_map (fun m -> match m.id.attr with None -> Some m.id.pre | Some _ -> None) (eval p doc)

let count p keep doc =
  run p Count keep doc;
  p.count

let exists p doc = reach doc (Ast.Exists []) (-1) p.steps
