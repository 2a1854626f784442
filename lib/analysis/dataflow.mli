(** Flow-sensitive exception-safety analysis (X001): an intraprocedural
    abstract walk over Parsetree expressions, computing a forward
    may-analysis of pending save/restore obligations on [Atomic.t]/[ref].

    - [X001] a save/restore idiom ([let old = Atomic.get x … Atomic.set x
      old] or [let old = !r … r := old]) whose restore is skipped on some
      exceptional path.

    The walk (branches joined where they meet, loop heads iterated to a
    fixpoint, exceptional states — [raise]/[failwith], any call whose
    per-binding can-raise summary is set — joined at the innermost
    [try]/[match]-[exception] handler, [Fun.protect] finalizers walked
    from both the normal and the exceptional end) and the soundness /
    incompleteness trade-offs are documented in DESIGN.md §5k.

    Suppression: [\[@lint.allow "X001"\]] at the save binding. *)

(** Run X001 over every binding of the graph (each closure body is
    analyzed as its own root).  Attribute suppressions are already
    applied. *)
val check : Sites.t -> Finding.t list
