(** Candidate generalization: generalizeStep (Algorithm 1) + advanceStep
    (Table II) + rewrite rule 0, iterated over all compatible candidate pairs
    to a fixpoint, wiring the candidate DAG along the way. *)

module Pattern = Xia_xpath.Pattern

(** All generalizations of one pattern pair, normalized (rule 0) and
    deduplicated.  [pair /Security/Symbol /Security/SecInfo/*/Sector]
    is [\[/Security//*\]]. *)
val pair : Pattern.t -> Pattern.t -> Pattern.t list

(** Same table, same data type. *)
val compatible : Candidate.t -> Candidate.t -> bool

(** Safety cap on the candidate-set size. *)
val max_candidates : int

(** Expand the set to a fixpoint and recompute affected sets. *)
val close : Candidate.set -> unit
