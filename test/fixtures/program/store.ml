(* Lint smoke-test fixture: never compiled, only parsed by xia_lint.
   Raw toplevel state (D001) that the parallel tasks in worker.ml reach. *)

let hits = ref 0
let total = ref 0
