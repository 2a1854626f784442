(* The observability master switch and the clock.

   Everything in lib/obs is gated on [enabled]: when the flag is off, a span
   is one load and a metric update is one load plus a branch,
   so the instrumented hot paths cost the same as uninstrumented ones to
   within noise (measured in EXPERIMENTS.md).

   [now_s] is the only sanctioned wall-clock accessor for library code: the
   lint's D004 check forbids [Unix.gettimeofday] in lib/ outside lib/obs/, so
   every elapsed-time measurement flows through here and tests can reason
   about (and scrub) timestamps in one place. *)

let enabled = ref false [@@lint.allow "D001"]

let on () = !enabled

let set_enabled b = enabled := b

(* Run [f] with observability forced to [v], restoring the previous state
   even on exceptions (the differential test suite toggles around runs). *)
let with_enabled v f =
  let saved = !enabled in
  enabled := v;
  Fun.protect ~finally:(fun () -> enabled := saved) f

let now_s () = Unix.gettimeofday ()
