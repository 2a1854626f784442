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

val element : ?attrs:(string * string) list -> string -> t list -> t
val text : string -> t

(** [leaf tag v] is [<tag>v</tag>]. *)
val leaf : ?attrs:(string * string) list -> string -> string -> t

(** Concatenated direct text children of an element. *)
val direct_text : element -> string

val count_elements : t -> int

(** Approximate serialized size in bytes. *)
val byte_size : t -> int

val equal : t -> t -> bool
