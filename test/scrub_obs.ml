(* Normalizer for the observability CLI fixtures: rewrites every
   timing-dependent numeric JSON field to "_" so the remaining structure —
   span names, nesting, argument values, metric names and deterministic
   counters — can be diffed byte-for-byte against a committed fixture.

   trace mode scrubs "ts" and "dur" (wall-clock position and duration of
   every span); metrics mode scrubs "sum_us" and the per-bucket "n" tallies
   of histograms (latency-dependent), keeping counter values and histogram
   "count" fields, which are deterministic; eval mode scrubs
   the per-case "elapsed" seconds of the quality-evaluation report, whose
   every other number (regret, ranks, call counts, spearman) is
   deterministic.

   Usage: scrub_obs (trace|metrics|eval) FILE *)

let is_number_char = function
  | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true
  | _ -> false

(* Replace every `"field":<number>` in [line] with `"field":"_"`. *)
let scrub_field field line =
  let key = Printf.sprintf "\"%s\":" field in
  let klen = String.length key and n = String.length line in
  let b = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    if !i + klen <= n && String.sub line !i klen = key && !i + klen < n
       && is_number_char line.[!i + klen]
    then begin
      Buffer.add_string b key;
      Buffer.add_string b "\"_\"";
      i := !i + klen;
      while !i < n && is_number_char line.[!i] do
        incr i
      done
    end
    else begin
      Buffer.add_char b line.[!i];
      incr i
    end
  done;
  Buffer.contents b

let () =
  let usage () =
    prerr_endline "usage: scrub_obs (trace|metrics|eval) FILE";
    exit 2
  in
  if Array.length Sys.argv <> 3 then usage ();
  let fields =
    match Sys.argv.(1) with
    | "trace" -> [ "ts"; "dur" ]
    | "metrics" -> [ "sum_us"; "n" ]
    | "eval" -> [ "elapsed" ]
    | _ -> usage ()
  in
  let ic = open_in Sys.argv.(2) in
  (try
     while true do
       print_endline (List.fold_left (fun l f -> scrub_field f l) (input_line ic) fields)
     done
   with End_of_file -> ());
  close_in ic
