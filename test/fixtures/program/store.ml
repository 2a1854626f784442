(* Lint smoke-test fixture: never compiled, only parsed by xia_lint.
   Raw toplevel state (D001). *)

let hits = ref 0
let total = ref 0
