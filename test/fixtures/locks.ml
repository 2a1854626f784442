(* Exception-safety fixture: one finding of the flow-sensitive check. *)

let flag = Atomic.make false

(* X001: [f ()] may raise before the restore. *)
let with_flag f =
  let saved = Atomic.get flag in
  Atomic.set flag true;
  let r = f () in
  Atomic.set flag saved;
  r
