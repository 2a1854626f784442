(** Abstract syntax for the XPath subset understood by the system: linear
    paths over child ([/]) and descendant ([//]) axes with label, wildcard and
    attribute name tests, plus step predicates (path existence and comparisons
    with literals). *)

type axis =
  | Child        (** [/] *)
  | Descendant   (** [//] *)

type name_test =
  | Name of string
  | Wildcard     (** [*] *)

type node_test =
  | Elem of name_test
  | Attr of name_test  (** [@name] or [@*] *)

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
  | Exists of step list
      (** [\[a/b\]] — a node reachable by the relative path exists. *)
  | Compare of step list * cmp * literal
      (** [\[a/b > 4.5\]]; an empty relative path means the step itself,
          written [\[. > 4.5\]]. *)

type path = step list

val equal_axis : axis -> axis -> bool
val equal_name_test : name_test -> name_test -> bool
val equal_node_test : node_test -> node_test -> bool
val equal_path : path -> path -> bool

val has_predicates : path -> bool

(** [eval_cmp_int c n] interprets [c] against [compare]-style result [n]. *)
val eval_cmp_int : cmp -> int -> bool

(** A float cell for {!read_number}.  A record of floats stores them
    unboxed, so filling it allocates nothing. *)
type number = { mutable number : float }

(** [read_number cell v]: does node value [v] coerce to a number?  If so,
    the number is left in [cell].  The coercion is
    [float_of_string_opt (String.trim v)], bit for bit; a plain decimal
    (optional [-], at most 15 digits, optionally a point among them) is read
    without calling [float_of_string], and a value that cannot start a
    number is rejected without it. *)
val read_number : number -> string -> bool

(** [literal_matches v c lit]: does node value [v] satisfy [v c lit]?  Numeric
    literals coerce [v] as {!read_number} does (failure to coerce means no
    match), allocating nothing for a plain decimal; string literals compare
    lexically. *)
val literal_matches : string -> cmp -> literal -> bool
