(** The site table: one parsetree walk per compilation unit, shared by
    every check.

    The walk visits every expression of a unit once — module-level
    bindings, functor bodies and toplevel [;;] expressions alike — and
    records the syntactic sites the checks classify, each with the
    [\[@lint.allow\]] IDs active there.  It makes the unit's module-level
    bindings as it reaches them, each with its own sites.  Identifiers are
    recorded as written: {!Checks} classifies the sites itself, per unit
    or per binding.  See DESIGN.md §5c. *)

type unit_info = {
  path : string;  (** as given to the driver, e.g. "lib/core/benefit.ml" *)
  source : string;
  structure : Parsetree.structure;
}

type kind =
  | Ref of string list  (** every identifier, applied or not, as written *)
  | Apply of string list * (Asttypes.arg_label * Parsetree.expression) list
      (** an identifier applied to arguments; the head is also a [Ref] *)
  | Binder of string  (** a variable a pattern binds *)
  | Let of Parsetree.pattern * Parsetree.expression * Parsetree.expression option
      (** a value binding: its pattern, its right-hand side and, in
          [let p = e in body], the body *)
  | Assert of Parsetree.expression  (** [assert e] *)

type site = {
  loc : Location.t;
  kind : kind;
  allow : string list list;
      (** [\[@lint.allow\]] IDs of the enclosing expressions and value
          bindings, innermost first *)
}

(** A module-level value binding (nested modules included). *)
type binding = {
  name : string;
      (** dotted inside nested modules, [_] naming an anonymous one;
          ["(init:LINE)"] for a pattern that binds no single variable *)
  expr : Parsetree.expression;
  attrs : Parsetree.attributes;
  loc : Location.t;
  enclosing : string list;  (** [\[@@lint.allow\]] IDs of the enclosing module bindings *)
  own : site list;
      (** the sites of its right-hand side, in walk order; each binding
          has its own, a binding that a later one of the same name
          shadows included *)
}

type t = {
  sites : site list;  (** every site of the unit, in walk (pre-)order *)
  bindings : binding list;  (** in source order *)
  mutable_fields : (string, unit) Hashtbl.t;
      (** field names declared [mutable] anywhere in the unit *)
}

(** Walk one unit. *)
val walk : unit_info -> t

(** The variable a pattern binds, through type constraints. *)
val var_of_pattern : Parsetree.pattern -> string option

(** Is the check ID among the site's active [\[@lint.allow\]] IDs? *)
val active : site -> string -> bool

(** Apply [f] to every immediate child expression, in syntactic order. *)
val iter_child_exprs : (Parsetree.expression -> unit) -> Parsetree.expression -> unit
