(** Stored documents packed into preorder arrays.

    A packed document numbers its elements in preorder (the root is rank 0)
    and keeps one array slot per element: its interned label, the rank of the
    last element in its subtree, and its value ({!Types.direct_text}).
    The children of element [i] are [i + 1], then [last.(j) + 1] after each
    child [j], up to [last.(i)]; its proper descendants are exactly the ranks
    [i + 1 .. last.(i)].  Attributes sit in slot arrays in document order,
    element [i] owning slots [attr_first.(i)] to [attr_first.(i + 1) - 1], so
    the attributes of a subtree are one contiguous slot range too.

    Nothing is lost: {!unpack} rebuilds the exact tree, including the
    position of every text child in mixed content and [Text ""] children. *)

(** {2 Labels}

    Element and attribute names interned to small integers.  A table belongs
    to one store; every document packed into it compares labels as
    integers. *)

type labels

val labels : unit -> labels

(** The id of a name, or [-1] when no document of the table uses it. *)
val find_label : labels -> string -> int

(** {2 Documents} *)

type t = private {
  labels : labels;  (** the table every label below is interned in *)
  tags : int array;  (** label of each element *)
  last : int array;  (** rank of the last element of each element's subtree *)
  values : string array;  (** {!Types.direct_text} of each element *)
  attr_first : int array;  (** first slot of each element; one more entry, the slot count *)
  attr_names : int array;
  attr_values : string array;
  mixed : (int * (int * string) list) array;
      (** elements whose text children are not just one non-empty text in
          first position, by rank: each text child with its position among
          the element's children *)
  bytes : int;  (** {!Types.byte_size} of the document *)
}

(** @raise Invalid_argument if the root is a text node. *)
val pack : labels -> Types.t -> t

(** The exact tree: [Types.equal (unpack (pack l d)) d]. *)
val unpack : t -> Types.t

(** {!Types.count_elements} of the document. *)
val elements : t -> int

(** [set_text doc ranks v] replaces the direct text of the elements ranked
    [ranks] by the one text child [v], placed before their element
    children.  The document is copied, not changed. *)
val set_text : t -> int list -> string -> t

(** {2 Guided walk}

    A walk over a document that carries a small dataguide along: one guide
    node per distinct rooted label path (attribute components spelled
    ["@name"]).  A guide node holds a consumer value, computed once from its
    parent's value and its label, so per-path work is done once per path
    instead of once per node.  A guide serves every document of one label
    table. *)

type 'a guide

(** [guide labels ~root ~label ~dead]: [root] is the value of the empty path,
    [label v l] the value of the path extended by label [l] from a path
    with value [v].  A path whose value is [dead] is never reported, and
    neither is anything below it. *)
val guide :
  labels -> root:'a -> label:('a -> string -> 'a) -> dead:('a -> bool) -> 'a guide

(** [walk g f doc] calls [f pre attr v value] for every element and every
    attribute of [doc] whose path value [v] is live, in document order:
    each element followed by its attributes.  [pre] and [attr] are the
    fields of the node's {!Types.node_id}, [-1] standing for [attr = None].
    @raise Invalid_argument if [doc] uses another label table than [g]. *)
val walk : 'a guide -> (int -> int -> 'a -> string -> unit) -> t -> unit
