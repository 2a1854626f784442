(* Named metrics: counters, gauges and fixed-bucket latency histograms.

   Metrics are registered once by name (re-registering returns the existing
   instrument; a kind clash is a programming error) and live in a global
   registry so [snapshot] can serialize everything.

   Updates at instrumentation sites are gated on [Obs.on ()] by the caller
   (see e.g. lib/core/benefit.ml), keeping the disabled path to one load.
   The instruments themselves do not check the flag: tests and the bench
   harness update them directly. *)

type kind = Counter | Gauge | Histogram

type counter = int ref

type gauge = float ref

(* Histogram state: [buckets.(i)] counts observations <= [bounds.(i)] (and
   above the previous bound); the final cell counts overflows.  [sum_us]
   accumulates whole microseconds, as the snapshot reports it. *)
type histogram = {
  bounds : float array;  (* upper bounds, strictly increasing, in us *)
  buckets : int array;  (* length = Array.length bounds + 1 *)
  mutable count : int;
  mutable sum_us : int;
}

type instrument =
  | I_counter of counter
  | I_gauge of gauge
  | I_histogram of histogram

let kind_of = function
  | I_counter _ -> Counter
  | I_gauge _ -> Gauge
  | I_histogram _ -> Histogram

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

(* Process-wide by design: instrumentation sites look their instruments up
   by name, and a snapshot reports everything registered. *)
let registry : (string * instrument) list ref = ref [] [@@lint.allow "D001"]

(* Register-once: the instrument already under [name], or [fresh ()]. *)
let intern name fresh =
  match List.assoc_opt name !registry with
  | Some existing -> existing
  | None ->
      let inst = fresh () in
      registry := (name, inst) :: !registry;
      inst

let kind_clash name want got =
  invalid_arg
    (Printf.sprintf "Metrics: %S already registered as a %s, requested as a %s"
       name (kind_name got) (kind_name want))

let counter name =
  match intern name (fun () -> I_counter (ref 0)) with
  | I_counter c -> c
  | other -> kind_clash name Counter (kind_of other)

let gauge name =
  match intern name (fun () -> I_gauge (ref 0.0)) with
  | I_gauge g -> g
  | other -> kind_clash name Gauge (kind_of other)

(* Default bounds suit what-if optimizer call latencies: 1us .. 1s.  A
   function (not a toplevel array literal) so each histogram owns its copy. *)
let default_bounds () =
  [| 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1e3; 2e3; 5e3; 1e4; 1e5; 1e6 |]

let fresh_histogram bounds () =
  I_histogram
    { bounds; buckets = Array.make (Array.length bounds + 1) 0; count = 0; sum_us = 0 }

let histogram ?bounds_us name =
  let bounds =
    match bounds_us with Some b -> Array.copy b | None -> default_bounds ()
  in
  match intern name (fresh_histogram bounds) with
  | I_histogram h -> h
  | other -> kind_clash name Histogram (kind_of other)

let incr c = Stdlib.incr c
let add c n = c := !c + n

let set g v = g := v

let observe h us =
  let rec bucket i =
    if i >= Array.length h.bounds then i
    else if us <= h.bounds.(i) then i
    else bucket (i + 1)
  in
  let i = bucket 0 in
  h.buckets.(i) <- h.buckets.(i) + 1;
  h.count <- h.count + 1;
  h.sum_us <- h.sum_us + int_of_float us

let observe_s h s = observe h (s *. 1e6)

(* ------------------------------------------------------------- snapshot -- *)

type snapshot_value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of { count : int; sum_us : int; buckets : (float * int) list }
      (* (upper bound in us, cumulative-free bucket count); the overflow
         bucket is reported with bound [infinity] *)

let snapshot () =
  let entries =
    List.map
      (fun (name, inst) ->
        let v =
          (match inst with
          | I_counter c -> Counter_v !c
          | I_gauge g -> Gauge_v !g
          | I_histogram h ->
              let buckets =
                List.init
                  (Array.length h.buckets)
                  (fun i ->
                    let bound =
                      if i < Array.length h.bounds then h.bounds.(i)
                      else infinity
                    in
                    (bound, h.buckets.(i)))
              in
              Histogram_v { count = h.count; sum_us = h.sum_us; buckets })
        in
        (name, v))
      !registry
  in
  List.sort (fun (a, _) (b, _) -> compare a b) entries

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let bound_to_json b =
  if Float.is_integer b && Float.abs b < 1e15 then
    Printf.sprintf "%.0f" b
  else Printf.sprintf "%g" b

(* One JSON object per metric per line, so fixtures can be scrubbed and
   diffed line-by-line. *)
let to_json entries =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"metrics\":[\n";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_string b ",\n";
      (match v with
      | Counter_v n ->
          Buffer.add_string b
            (Printf.sprintf "{\"name\":\"%s\",\"type\":\"counter\",\"value\":%d}"
               (json_escape name) n)
      | Gauge_v g ->
          Buffer.add_string b
            (Printf.sprintf "{\"name\":\"%s\",\"type\":\"gauge\",\"value\":%g}"
               (json_escape name) g)
      | Histogram_v { count; sum_us; buckets } ->
          Buffer.add_string b
            (Printf.sprintf
               "{\"name\":\"%s\",\"type\":\"histogram\",\"count\":%d,\"sum_us\":%d,\"buckets\":["
               (json_escape name) count sum_us);
          List.iteri
            (fun j (bound, n) ->
              if j > 0 then Buffer.add_char b ',';
              if Float.is_finite bound then
                Buffer.add_string b
                  (Printf.sprintf "{\"le_us\":%s,\"n\":%d}" (bound_to_json bound) n)
              else Buffer.add_string b (Printf.sprintf "{\"le_us\":\"inf\",\"n\":%d}" n))
            buckets;
          Buffer.add_string b "]}"))
    entries;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b
