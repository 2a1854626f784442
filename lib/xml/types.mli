(** XML tree model used throughout the advisor.

    Documents are ordinary element trees.  Namespaces are not interpreted: a
    prefixed tag is a flat label.  Mixed content is supported; the value of an
    element (as seen by value indexes) is the concatenation of its direct text
    children. *)

type t =
  | Element of element
  | Text of string

and element = {
  tag : string;
  attrs : (string * string) list;
  children : t list;
}

(** Identity of a node within a single document. [pre] is the preorder rank of
    the owning element (root = 0); [attr = Some i] designates the i-th
    attribute of that element. *)
type node_id = {
  pre : int;
  attr : int option;
}

val compare_node_id : node_id -> node_id -> int
val equal_node_id : node_id -> node_id -> bool

val element : ?attrs:(string * string) list -> string -> t list -> t
val text : string -> t

(** [leaf tag v] is [<tag>v</tag>]. *)
val leaf : ?attrs:(string * string) list -> string -> string -> t

val is_element : t -> bool
val tag_of : t -> string option

(** Concatenated direct text children of an element. *)
val direct_text : element -> string

(** [direct_text] without a copy in the usual cases: [""] for an element
    without children, the text itself for a single text child. *)
val element_value : element -> string

(** Value of a node: [element_value] for elements, the text for text nodes. *)
val node_value : t -> string

val count_elements : t -> int

(** Elements + attributes + text nodes. *)
val count_nodes : t -> int

(** Approximate serialized size in bytes. *)
val byte_size : t -> int

val equal : t -> t -> bool
