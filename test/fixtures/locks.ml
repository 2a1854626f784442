(* Exception-safety fixture: one X001, a save restored outside Fun.protect. *)

let flag = Atomic.make false

(* X001: [f ()] may raise before the restore. *)
let with_flag f =
  let saved = Atomic.get flag in
  Atomic.set flag true;
  let r = f () in
  Atomic.set flag saved;
  r
