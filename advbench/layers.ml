(* Per-layer accounting for the traced run.

   The benchmark wraps each call it makes into a layer in a span named
   "bench.<layer>" (phases are "bench.phase.<name>"), recorded through
   [Xia_obs.Trace] next to the spans the library already emits
   ("summary.compress", "benefit.sub_config_delta", "optimizer.batch",
   "search.greedy_heuristics", ...).  A library span belongs to the layer
   its name starts with.  After the run every span's self time (its duration
   minus its direct children's) is summed per layer.

   Minor words can only be read at benchmark-owned boundaries: a
   benchmark span records the words allocated between its open and close,
   and its self words exclude the nearest benchmark spans nested in it.
   Library spans carry no word count, so the words of work done under a
   library span (for instance the optimizer under [Search]) stay with the
   benchmark span that encloses it.

   With [Xia_obs.Obs] off, [span] is a plain call. *)

module Obs = Xia_obs.Obs
module Trace = Xia_obs.Trace

let names =
  [
    "xml"; "storage"; "query"; "summary"; "enumeration"; "generalize";
    "benefit"; "optimizer"; "search"; "index"; "executor";
  ]

let phases = [ "setup"; "advise"; "validate" ]

type owned = { calls : int; mutable words : float }

(* Benchmark spans in open order; the k-th "bench." span of a flush is the
   k-th entry (one domain, so flush order is open order). *)
let owned : owned Queue.t = Queue.create ()

let record name calls f =
  let o = { calls; words = 0.0 } in
  Queue.push o owned;
  let w0 = Gc.minor_words () in
  Trace.with_span ("bench." ^ name) (fun () ->
      Fun.protect ~finally:(fun () -> o.words <- Gc.minor_words () -. w0) f)

(* [span layer ~calls f]: [f] is [calls] calls into [layer]. *)
let span ?(calls = 1) layer f = if Obs.on () then record layer calls f else f ()

(* [phase name f] is [(f (), seconds)]. *)
let phase name f =
  let t0 = Unix.gettimeofday () in
  let r = if Obs.on () then record ("phase." ^ name) 0 f else f () in
  (r, Unix.gettimeofday () -. t0)

let start () =
  Queue.clear owned;
  ignore (Trace.flush ());
  Obs.set_enabled true

type layer_total = {
  mutable self_s : float;
  mutable n_calls : int;
  mutable self_words : float;
}

type report = {
  layers : (string * layer_total) list;
  other_s : float;
  coverage : (string * float) list;  (** phase → share of its time in named layers *)
  spans : Trace.span list;
}

type node = {
  sp : Trace.span;
  kind : [ `Layer of string | `Phase of string | `Other ];
  own : owned option;
  bench_parent : node option;  (* nearest enclosing benchmark span *)
  phase_of : string option;
  mutable child_s : float;
  mutable child_words : float;
}

let dur (s : Trace.span) = s.stop_s -. s.start_s

let classify name =
  let starts p = String.starts_with ~prefix:p name in
  if starts "bench.phase." then `Phase (String.sub name 12 (String.length name - 12))
  else
    let base = if starts "bench." then String.sub name 6 (String.length name - 6) else name in
    let layer = match String.index_opt base '.' with Some i -> String.sub base 0 i | None -> base in
    if List.mem layer names then `Layer layer else `Other

let stop () =
  Obs.set_enabled false;
  let spans = Trace.flush () in
  let totals = List.map (fun l -> (l, { self_s = 0.0; n_calls = 0; self_words = 0.0 })) names in
  let phase_total = Hashtbl.create 4 and phase_other = Hashtbl.create 4 in
  let add tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k)) in
  let stack = Array.make 256 None in
  let nodes =
    List.map
      (fun (sp : Trace.span) ->
        let parent = if sp.depth = 0 then None else stack.(sp.depth - 1) in
        let kind = classify sp.name in
        let own =
          if String.starts_with ~prefix:"bench." sp.name then Queue.take_opt owned else None
        in
        let bench_parent =
          match parent with
          | None -> None
          | Some p -> if Option.is_some p.own then Some p else p.bench_parent
        in
        let phase_of =
          match (kind, parent) with
          | `Phase p, _ -> Some p
          | _, Some p -> p.phase_of
          | _, None -> None
        in
        let n =
          { sp; kind; own; bench_parent; phase_of; child_s = 0.0; child_words = 0.0 }
        in
        stack.(sp.depth) <- Some n;
        Option.iter (fun p -> p.child_s <- p.child_s +. dur sp) parent;
        (match (own, bench_parent) with
        | Some o, Some bp -> bp.child_words <- bp.child_words +. o.words
        | _ -> ());
        let entry =
          match (kind, parent) with
          | `Layer l, Some { kind = `Layer pl; _ } -> not (String.equal l pl)
          | _ -> true
        in
        (n, entry))
      spans
  in
  let other_s = ref 0.0 in
  List.iter
    (fun (n, entry) ->
      let self = dur n.sp -. n.child_s in
      (match n.kind with
      | `Phase p -> add phase_total p (dur n.sp)
      | _ -> ());
      match n.kind with
      | `Layer l ->
          let t = List.assoc l totals in
          t.self_s <- t.self_s +. self;
          if entry then
            t.n_calls <- t.n_calls + (match n.own with Some o -> o.calls | None -> 1);
          Option.iter (fun o -> t.self_words <- t.self_words +. o.words -. n.child_words) n.own
      | `Phase _ | `Other ->
          other_s := !other_s +. self;
          Option.iter (fun p -> add phase_other p self) n.phase_of)
    nodes;
  let coverage =
    List.filter_map
      (fun p ->
        Option.map
          (fun total ->
            let other = Option.value ~default:0.0 (Hashtbl.find_opt phase_other p) in
            (p, if total > 0.0 then 1.0 -. (other /. total) else 1.0))
          (Hashtbl.find_opt phase_total p))
      phases
  in
  { layers = totals; other_s = !other_s; coverage; spans }
