(* Lint smoke-test fixture: never compiled, only parsed by xia_lint.
   A what-if module: both cost bindings reach Loader's mutator, and
   optimize_batch is an E002 root. *)

let cost catalog defs = Staging.stage catalog defs
let plan_cost catalog defs = Staging.stage catalog defs

let optimize_batch cache stmts = List.map (Planner.plan cache) stmts
