(** Index maintenance cost model — the [mc(x, s)] term in the paper's benefit
    formula.  Charged only for insert / delete / update statements. *)

(** Maintenance cost in optimizer cost units of one statement affecting
    [docs_affected] documents: the same for an insert, a delete and an
    update. *)
val cost : Index_stats.t -> docs_affected:float -> float
