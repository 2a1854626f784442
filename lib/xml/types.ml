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
