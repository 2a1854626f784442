(* Lint smoke-test fixture: never compiled, only parsed by xia_lint.
   Named "benefit.ml" so the D003 what-if reentrancy check applies: the
   catalog mutation below is reachable from both toplevel functions. *)

let install catalog defs = Catalog.create_index catalog defs

let benefit catalog defs =
  install catalog defs;
  0.0

let read_only catalog =
  Catalog.warm_stats catalog;
  Catalog.stats catalog "T"
