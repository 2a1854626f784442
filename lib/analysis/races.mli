(** R001 (domain races on shared state) and N002, run over the
    whole-program call graph and the {!Effects} summaries computed on it.
    The rest of the R-series lives elsewhere: [R002] (lock order) is a
    query on {!Dataflow}'s flow-sensitive lockset, [R003] (non-atomic
    read-modify-write) a unit-local check in {!Checks}.

    - [R001] mutable state reachable from a parallel task: a closure or
      named function passed to [Par.map]/[Par.map_list]/[Par.iter]/
      [Domain.spawn] that captures a raw mutable local, writes a mutable
      record field of a captured value, or (transitively, across units — a
      {!Callgraph.reach} over {!Sites.calls}) references raw
      module-toplevel mutable state.  Atomic/Mutex/Domain.DLS/Lazy-wrapped
      state never classifies as raw; the walk never enters a
      lock-disciplined function (body takes a [Mutex.lock]).
    - [N002] parallel float reduction without [Par.sum_list]: an escaping
      task accumulating floats into shared state (the same walk with no
      cut — a mutex serializes updates without fixing their order), or a
      fan-out host folding float results with a bare
      [List.fold_left]/[Array.fold_left].

    Semantics, worked examples and the soundness/incompleteness trade-offs
    are documented in DESIGN.md §5f and §5h. *)

(** Run R001 and N002 over every unit of the graph.  Attribute
    suppressions ([\[@lint.allow "R001"\]] etc.) are applied; allow-file
    suppression is the caller's job. *)
val check : Sites.t -> Effects.t -> Finding.t list
