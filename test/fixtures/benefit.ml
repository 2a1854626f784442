(* Lint smoke-test fixture: never compiled, only parsed by xia_lint.
   A catalog mutation reachable from both toplevel functions: a what-if
   shape the type checker rejects, and no lint check flags. *)

let install catalog defs = Catalog.create_index catalog defs

let benefit catalog defs =
  install catalog defs;
  0.0

let read_only catalog =
  Catalog.warm_stats catalog;
  Catalog.stats catalog "T"
