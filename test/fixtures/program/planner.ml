(* Lint smoke-test fixture: never compiled, only parsed by xia_lint.
   E002: a shared write two calls below Optimizer.optimize_batch. *)

let remember cache s = Hashtbl.replace cache s ()
let plan cache s = remember cache s; s
