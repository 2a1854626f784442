(* Lock-discipline fixture: one finding of each flow-sensitive check. *)

let a = Mutex.create ()
let b = Mutex.create ()
let flag = Atomic.make false

(* R002: the loop head joins the unlocked entry with the locked back edge,
   so the lock of the second iteration may find [a] held. *)
let spin n =
  let i = ref 0 in
  while !i < n do
    Mutex.lock a;
    incr i
  done;
  Mutex.unlock a

(* L001: IO inside the protected critical section. *)
let report msg =
  Mutex.lock b;
  Fun.protect ~finally:(fun () -> Mutex.unlock b) (fun () -> print_endline msg)

(* L002: [f ()] may raise with [a] held. *)
let guarded f =
  Mutex.lock a;
  let r = f () in
  Mutex.unlock a;
  r

(* X001: [f ()] may raise before the restore. *)
let with_flag f =
  let saved = Atomic.get flag in
  Atomic.set flag true;
  let r = f () in
  Atomic.set flag saved;
  r

(* X002: the second unlock finds [b] free. *)
let release () =
  Mutex.lock b;
  Mutex.unlock b;
  Mutex.unlock b
