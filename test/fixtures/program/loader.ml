(* Lint smoke-test fixture: never compiled, only parsed by xia_lint.
   The D003 mutator site, reached from optimizer.ml through staging.ml. *)

let build catalog def = Catalog.create_index catalog def
