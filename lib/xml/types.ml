(* XML tree model.

   Documents are element trees with interleaved text leaves and attributes on
   elements.  Namespaces are flattened into the tag name (["ns:tag"] is an
   ordinary label), which is all the index advisor needs. *)

type t =
  | Element of element
  | Text of string

and element = {
  tag : string;
  attrs : (string * string) list;
  children : t list;
}

(* Identity of a node inside one document: [pre] is the preorder rank of the
   owning element; [attr] selects one of its attributes when set. *)
type node_id = {
  pre : int;
  attr : int option;
}

let compare_node_id a b =
  match compare a.pre b.pre with
  | 0 -> compare a.attr b.attr
  | c -> c

let equal_node_id a b = compare_node_id a b = 0

let element ?(attrs = []) tag children = Element { tag; attrs; children }
let text s = Text s

(* Leaf element holding a single text value: <tag>value</tag>. *)
let leaf ?(attrs = []) tag value = element ~attrs tag [ text value ]

let is_element = function Element _ -> true | Text _ -> false

let tag_of = function
  | Element e -> Some e.tag
  | Text _ -> None

(* Concatenation of the direct text children of an element; this is the value
   a value index stores for the node. *)
let direct_text e =
  let buf = Buffer.create 16 in
  let add = function
    | Text s -> Buffer.add_string buf s
    | Element _ -> ()
  in
  List.iter add e.children;
  Buffer.contents buf

(* The same value without copying in the usual cases: no children give
   [""] and a single text child gives that text itself. *)
let element_value e =
  match e.children with
  | [] -> ""
  | [ Text s ] -> s
  | _ -> direct_text e

let node_value = function
  | Element e -> element_value e
  | Text s -> s

let rec count_elements = function
  | Text _ -> 0
  | Element e -> 1 + List.fold_left (fun n c -> n + count_elements c) 0 e.children

let rec count_nodes = function
  | Text _ -> 1
  | Element e ->
      1 + List.length e.attrs
      + List.fold_left (fun n c -> n + count_nodes c) 0 e.children

(* Serialized size approximation, used by the storage layer to report table
   sizes in bytes without keeping the source text around. *)
let rec byte_size = function
  | Text s -> String.length s
  | Element e ->
      let tag_cost = (2 * String.length e.tag) + 5 in
      let attr_cost =
        List.fold_left
          (fun n (k, v) -> n + String.length k + String.length v + 4)
          0 e.attrs
      in
      List.fold_left (fun n c -> n + byte_size c) (tag_cost + attr_cost) e.children

(* ---------- guided walk ---------- *)

(* A per-walk dataguide: one node per distinct rooted label path met so
   far.  Element children are keyed by tag and attribute children by name,
   in separate lists, so looking a child up compares strings and allocates
   nothing; the few distinct paths of a table keep the lists short.  Each
   node holds the consumer's value for its path, computed once from the
   parent's value and the label, and whether that value is live. *)
type 'a guide_node = {
  name : string;
  value : 'a;
  live : bool;
  mutable elements : 'a guide_node list;
  mutable attributes : 'a guide_node list;
}

type 'a guide = {
  root : 'a guide_node;
  label : 'a -> string -> 'a;
  dead : 'a -> bool;
}

let guide_node name value live = { name; value; live; elements = []; attributes = [] }

let guide ~root ~label ~dead = { root = guide_node "" root (not (dead root)); label; dead }

let add_child g parent ~attribute name =
  let value = g.label parent.value (if attribute then "@" ^ name else name) in
  let node = guide_node name value (not (g.dead value)) in
  if attribute then parent.attributes <- node :: parent.attributes
  else parent.elements <- node :: parent.elements;
  node

let rec find_child g parent ~attribute name = function
  | [] -> add_child g parent ~attribute name
  | node :: rest ->
      if String.equal node.name name then node else find_child g parent ~attribute name rest

let element_child g parent tag = find_child g parent ~attribute:false tag parent.elements
let attribute_child g parent name = find_child g parent ~attribute:true name parent.attributes

(* Preorder over elements, each followed by its attributes: the order and
   ranks of a plain recursive walk.  A dead element's subtree is skipped,
   but its elements still advance the rank counter, because the ranks of
   everything after it depend on them. *)
let walk g f doc =
  let counter = ref 0 in
  let rec visit parent = function
    | Text _ -> ()
    | Element e as node ->
        let here = element_child g parent e.tag in
        if here.live then visit_live here e
        else counter := !counter + count_elements node
  and visit_live here e =
    let pre = !counter in
    incr counter;
    f { pre; attr = None } here.value (element_value e);
    visit_attrs here pre 0 e.attrs;
    visit_children here e.children
  and visit_attrs parent pre i = function
    | [] -> ()
    | (k, v) :: rest ->
        let here = attribute_child g parent k in
        if here.live then f { pre; attr = Some i } here.value v;
        visit_attrs parent pre (i + 1) rest
  and visit_children parent = function
    | [] -> ()
    | node :: rest ->
        visit parent node;
        visit_children parent rest
  in
  match doc with
  | Text _ -> ()
  | Element e ->
      (* Nothing follows the root element, so a dead root needs no count. *)
      let here = element_child g g.root e.tag in
      if here.live then visit_live here e

(* Find the element with a given preorder rank, if any. *)
let find_by_pre doc pre =
  let counter = ref 0 in
  let exception Found of element in
  let rec walk = function
    | Text _ -> ()
    | Element e ->
        let here = !counter in
        incr counter;
        if here = pre then raise (Found e);
        if here > pre then raise Exit;
        List.iter walk e.children
  in
  try
    walk doc;
    None
  with
  | Found e -> Some e
  | Exit -> None

let rec equal a b =
  match a, b with
  | Text s, Text s' -> String.equal s s'
  | Element e, Element e' ->
      String.equal e.tag e'.tag
      && List.length e.attrs = List.length e'.attrs
      && List.for_all2
           (fun (k, v) (k', v') -> String.equal k k' && String.equal v v')
           e.attrs e'.attrs
      && List.length e.children = List.length e'.children
      && List.for_all2 equal e.children e'.children
  | Element _, Text _ | Text _, Element _ -> false
