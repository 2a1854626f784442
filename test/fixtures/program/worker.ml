(* Lint smoke-test fixture: never compiled, only parsed by xia_lint.
   R001 two helper hops below a Par.iter task, a lock-disciplined helper
   that cuts a second R001 path, and N002 in a helper of a Par.map task. *)

let m = Mutex.create ()

let bump x = Store.hits := x
let step x = bump x
let run items = Par.iter step items

let tally x = Store.total := x
let locked_tally x = Mutex.lock m; tally x; Mutex.unlock m
let run_locked items = Par.iter locked_tally items

type acc = { mutable sum : float }

let add acc c = acc.sum <- acc.sum +. c
let score_one acc c = add acc c; c
let score acc items = Par.map (score_one acc) items
