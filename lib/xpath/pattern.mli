(** Linear index patterns: predicate-free paths such as [/Security/Yield],
    [/Security//*], [//Yield] or [/Order/@ID].  These identify partial XML
    indexes, mirroring DB2's [XMLPATTERN] clauses. *)

type step = {
  axis : Ast.axis;
  test : Ast.node_test;
}

type t = step list

(** Drop predicates from a path to obtain its pattern skeleton. *)
val of_path : Ast.path -> t

val to_path : t -> Ast.path
val to_string : t -> string
val pp : Format.formatter -> t -> unit

val of_string_result : string -> (t, Xia_xml.Scan.error) result

(** @raise Invalid_argument on malformed input or a path with predicates. *)
val of_string : string -> t

val equal : t -> t -> bool
val compare : t -> t -> int

(** Canonical printable key, usable for hashing. *)
val key : t -> string

(** Interned id: equal patterns get equal ids, lookups are allocation-free.
    Ids are stable within a run but not across runs — identity only, never
    ordering (use {!key}/{!compare} for user-visible order). *)
val id : t -> int

val length : t -> int

(** The universal pattern [//*], matching every element and used by the
    optimizer's Enumerate Indexes mode. *)
val universal : t

(** The universal attribute pattern [//@*]. *)
val universal_attr : t

(** @raise Invalid_argument on the empty pattern. *)
val last_step : t -> step

(** Does the pattern index attribute nodes? *)
val targets_attribute : t -> bool

(** [true] when the pattern can match more than one fixed label sequence. *)
val is_general_shape : t -> bool

(** The pattern's compiled automaton (memoized).
    @raise Invalid_argument beyond 60 steps, as {!Nfa.of_steps}. *)
val nfa_of : t -> Nfa.t

(** {!nfa_of} by interned id (as from {!id}): a hit allocates nothing. *)
val nfa_of_id : int -> Nfa.t

(** [covers ~general ~specific]: every node reachable by [specific] is
    reachable by [general], in any document.  Exact language containment;
    memoized. *)
val covers : general:t -> specific:t -> bool

(** {!covers} over interned ids (as from {!id}): a cell of a dense table
    indexed by the two ids, computed once from the NFAs.  A known pair
    allocates nothing. *)
val covers_id : general:int -> specific:int -> bool

val equivalent : t -> t -> bool

(** The paper's rewrite rule 0: middle wildcard steps are folded into a
    descendant axis on the following step ([/a/*/b] → [/a//b]). *)
val rewrite_middle_wildcards : t -> t

(** Deterministic specificity score (named child steps weigh most); used for
    tie-breaking only. *)
val specificity : t -> int
