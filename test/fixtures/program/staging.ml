(* Lint smoke-test fixture: never compiled, only parsed by xia_lint.
   A caller outside the what-if modules between them and the mutator. *)

let stage catalog defs = List.iter (Loader.build catalog) defs
