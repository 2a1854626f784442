(** Flow-sensitive lock-discipline and exception-safety analysis (R002
    and the L/X-series): an intraprocedural abstract walk over Parsetree
    expressions, computing a forward may-analysis over a small product
    lattice — held locksets (nominal mutex identities, {!Effects.sym}) ×
    pending save/restore obligations on [Atomic.t]/[ref].  This is the
    analyzer's only lockset.

    - [R002] inconsistent mutex acquisition order: a mutex locked —
      directly, or by a call whose resolved targets transitively lock it —
      while another is held on some path, when the opposite nesting occurs
      elsewhere; locking a mutex that is held on some path is a
      self-deadlock.
    - [L001] a blocking call (an IO builtin, a call that may perform IO —
      one {!Callgraph.fixpoint} over the {!Effects} IO witnesses — or an
      [Optimizer.optimize*] entry) is reachable while a mutex is
      statically held.
    - [L002] a mutex is acquired and some exceptional path reaches the
      function exit without unlocking it (a bare [Mutex.lock]/[Mutex.unlock]
      pair not wrapped in a [Fun.protect]-style finalizer).
    - [X001] a save/restore idiom ([let old = Atomic.get x … Atomic.set x
      old] or [let old = !r … r := old]) whose restore is skipped on some
      exceptional path.
    - [X002] [Mutex.unlock] where the mutex is statically not held on
      any path (double unlock, or unlock without a lock on this path).

    The walk (branches joined where they meet, loop heads iterated to a
    fixpoint, exceptional states — [raise]/[failwith], any call whose
    per-binding can-raise summary is set — joined at the innermost
    [try]/[match]-[exception] handler, [Fun.protect] finalizers walked
    from both the normal and the exceptional end), the lattice, and the
    soundness / incompleteness trade-offs are documented in DESIGN.md
    §5k.  Findings are recorded from final states only.

    Suppression: [\[@lint.allow "ID"\]] at the site a finding anchors to
    (the inner [Mutex.lock] or the call for R002, the blocking call for
    L001, the [Mutex.lock] for L002, the save binding for X001, the
    [Mutex.unlock] for X002). *)

(** Run R002, L001, L002, X001 and X002 over every binding of the graph
    (each closure body is analyzed as its own root, entered with an
    unknown lockset).  Findings are deduplicated and carry attribute
    suppressions already applied. *)
val check : Sites.t -> Effects.t -> Finding.t list
