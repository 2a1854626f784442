(* Structured tracing: nestable spans in one buffer.

   Timestamps are monotonized: every timestamp handed out by the buffer is
   clamped to be >= the previous one.  With spans closed strictly LIFO
   (guaranteed by [with_span]), this makes two properties hold by
   construction, and the property tests in test/test_obs.ml check them on
   the flushed output:

   - well-nestedness: two spans are either disjoint or one contains the
     other;
   - monotonicity: every span's start is <= its stop, and in close order
     stop times never decrease.

   Exporter: Chrome [trace_event] JSON (load in chrome://tracing or
   https://ui.perfetto.dev). *)

type span = {
  name : string;
  args : (string * string) list;
  seq : int;      (* close order *)
  open_seq : int; (* open order — flush's clock-proof order *)
  depth : int;    (* nesting depth at open time; 0 = toplevel *)
  start_s : float;
  stop_s : float;
}

type buffer = {
  mutable last_ts : float;
  mutable seq : int;
  mutable opens : int;
  mutable depth : int;
  mutable spans : span list;  (* reverse close order *)
}

(* The process's one trace buffer: [flush] drains it. *)
let buf = { last_ts = 0.0; seq = 0; opens = 0; depth = 0; spans = [] } [@@lint.allow "D001"]

(* Monotonized clock read: never goes backwards. *)
let tick () =
  let t = Obs.now_s () in
  if t > buf.last_ts then begin
    buf.last_ts <- t;
    t
  end
  else buf.last_ts

let no_args () = []

let with_span ?(args = no_args) name f =
  if not (Obs.on ()) then f ()
  else begin
    let start_s = tick () in
    let depth = buf.depth in
    buf.depth <- depth + 1;
    let open_seq = buf.opens + 1 in
    buf.opens <- open_seq;
    let finally () =
      buf.depth <- depth;
      let stop_s = tick () in
      let seq = buf.seq + 1 in
      buf.seq <- seq;
      buf.spans <- { name; args = args (); seq; open_seq; depth; start_s; stop_s } :: buf.spans
    in
    Fun.protect ~finally f
  end

(* Timing helper shared by the advisor, the CLI, the bench harness and the
   tests (they used to hand-roll gettimeofday pairs): measure [f] and, when
   tracing is on, also record it as a span. *)
let timed ?(args = no_args) name f =
  let t0 = Obs.now_s () in
  let result = with_span ~args name f in
  (result, Obs.now_s () -. t0)

(* Open order, not close order: a parent and the child it opens within
   one clock tick share a (monotonized) [start_s], and close order would
   put the child first.  Open order is also start order, since the clock
   never goes backwards. *)
let flush () =
  let spans = buf.spans in
  buf.spans <- [];
  List.sort (fun a b -> Int.compare a.open_seq b.open_seq) spans

(* ------------------------------------------------------------ exporters -- *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Chrome trace_event format: one complete ("ph":"X") event per span, one
   event per line so fixture diffs stay readable.  Timestamps are in
   microseconds, as the format requires. *)
let export_chrome spans =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"xia\",\"ph\":\"X\",\"ts\":%.1f,\"dur\":%.1f,\"pid\":0,\"tid\":0"
           (json_escape s.name) (s.start_s *. 1e6)
           ((s.stop_s -. s.start_s) *. 1e6));
      if s.args <> [] then begin
        Buffer.add_string b ",\"args\":{";
        List.iteri
          (fun j (k, v) ->
            if j > 0 then Buffer.add_char b ',';
            Buffer.add_string b
              (Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)))
          s.args;
        Buffer.add_char b '}'
      end;
      Buffer.add_char b '}')
    spans;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)
