(* R001 (domain races on shared state) and N002 (order-fragile parallel
   float reduction), read off the [Sites] table and the [Effects]
   summaries (semantics in races.mli and DESIGN.md §5f/§5h).  R002 is a
   query on [Dataflow]'s flow-sensitive lockset, R003 a unit-local check
   in [Checks].

   Every [Apply] site of a fan-out entry ([Par.map], [Par.map_list],
   [Par.iter], [Domain.spawn]) is a task.  A literal task closure's own
   sites — those [Sites.inside] it — are checked for captured raw locals,
   captured field writes, direct raw globals and shared float
   accumulations, with the variables the closure binds exempt.  Every
   binding a task calls, named or from inside a closure, is followed with
   one [Callgraph.reach] over [Sites.calls], cut at lock-disciplined
   bindings for R001 (not for N002: a mutex serializes the updates without
   fixing their order), collecting the summaries' local witnesses.  The
   fold half of N002 is per binding: it fans out, folds floats, and never
   references [Par.sum_list].

   All checks honor [@lint.allow "ID"] at the site the finding anchors
   to. *)

open Parsetree

(* ---------------------------------------------------------------- R001 -- *)

type r001_ctx = {
  sites : Sites.t;
  eff : Effects.t;
  findings : Finding.t list ref;
}

let r001_capture_message entry name kind =
  Printf.sprintf
    "closure passed to %s captures mutable local %s (%s): shared across domains \
     without synchronization; use Atomic/Mutex or return per-item results"
    entry name kind

let via trail = match trail with [] -> "" | t -> " via " ^ String.concat " -> " t

let r001_global_message entry name kind path trail =
  Printf.sprintf
    "parallel task passed to %s reaches module-toplevel mutable state %s (%s, %s)%s: \
     unsynchronized cross-domain access; wrap in Atomic/Mutex/Domain.DLS"
    entry name kind path (via trail)

let r001_setfield_message entry field =
  Printf.sprintf
    "closure passed to %s writes mutable field %s of a captured value: \
     unsynchronized cross-domain write; guard with a Mutex or make it Atomic"
    entry field

let emit ctx ~id ~message loc =
  ctx.findings := Finding.of_location ~id ~message loc :: !(ctx.findings)

let site_key (loc : Location.t) extra =
  let p = loc.Location.loc_start in
  (p.Lexing.pos_fname, p.Lexing.pos_lnum, p.Lexing.pos_cnum, extra)

(* The [witnesses] of every binding a task that escapes to another domain
   reaches without entering a [cut] binding, each with its trail: the
   bindings from the task down to the witness's host, host included. *)
let escaping ctx ~cut witnesses (tgt : Callgraph.node) =
  List.concat_map
    (fun ((host : Callgraph.node), trail) ->
      let names = List.map (fun (n : Callgraph.node) -> n.name) (trail @ [ host ]) in
      List.map (fun w -> (w, names)) (witnesses host))
    (Callgraph.reach ~succ:(Sites.calls ctx.sites) ~cut tgt)

(* A named function that escapes to another domain: every raw-global
   access it reaches through bindings that are not lock-disciplined.
   [visited] is global — one finding per racy global reference site is
   enough no matter how many fan-out sites reach it. *)
let emit_escaping_witnesses ctx ~visited ~entry (tgt : Callgraph.node) =
  List.iter
    (fun ((w : Effects.race_witness), trail) ->
      let k = site_key w.w_loc w.w_global in
      if not (Hashtbl.mem visited k) then begin
        Hashtbl.replace visited k ();
        if not w.w_suppressed then
          emit ctx ~id:"R001"
            ~message:(r001_global_message entry w.w_global w.w_kind w.w_path trail)
            w.w_loc
      end)
    (escaping ctx
       ~cut:(fun n -> (Effects.summary ctx.eff n).lock_disciplined)
       (fun n -> (Effects.summary ctx.eff n).globals)
       tgt)

(* The capture checks over the sites of a literal closure passed to a
   fan-out point ([within]; [bound] holds the variables the closure binds),
   plus the witness query for every helper the closure calls. *)
let scan_closure ctx ~visited ~entry ~locals ~bound within =
  List.iter
    (fun (s : Sites.site) ->
      let emit_unless message =
        if not (Sites.active s "R001") then emit ctx ~id:"R001" ~message s.loc
      in
      match s.kind with
      | Ref { path = [ x ]; _ } when Hashtbl.mem bound x -> ()
      | Ref { path = [ x ]; _ } when Hashtbl.mem locals x ->
          emit_unless (r001_capture_message entry x (Hashtbl.find locals x))
      | Ref { targets; _ } ->
          List.iter
            (fun (tgt : Callgraph.node) ->
              match Effects.raw_global ctx.eff tgt with
              | Some kind -> emit_unless (r001_global_message entry tgt.name kind tgt.u.path [])
              | None -> emit_escaping_witnesses ctx ~visited ~entry tgt)
            targets
      | Setfield (base, f, _) -> (
          (* Any [x.f <- e] is a mutable-field write by construction; the
             only question is whether [x] is the closure's own. *)
          match base.pexp_desc with
          | Pexp_ident { txt = Longident.Lident x; _ } when Hashtbl.mem bound x -> ()
          | _ -> emit_unless (r001_setfield_message entry f))
      | _ -> ())
    within

let rec head_ident (e : expression) =
  match e.pexp_desc with
  | Pexp_ident lid -> Some (Longident.flatten lid.txt)
  | Pexp_apply (f, _) -> head_ident f
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> head_ident e
  | _ -> None

(* ---------------------------------------------------------------- N002 -- *)

let n002_acc_message entry what trail =
  Printf.sprintf
    "parallel task passed to %s performs %s%s: the accumulation order varies \
     across domains, so the sum is not reproducible; return per-task results \
     and combine with Par.sum_list"
    entry what (via trail)

let n002_fold_message what =
  Printf.sprintf
    "%s next to a parallel fan-out: float addition is not associative and the \
     fold order is a scheduling accident away from changing; combine the \
     fan-out's results with Par.sum_list (fixed sequential reduction)"
    what

let emit_escaping_accs ctx ~visited ~entry (tgt : Callgraph.node) =
  List.iter
    (fun ((a : Effects.witness), trail) ->
      let k = site_key a.s_loc "" in
      if not (Hashtbl.mem visited k) then begin
        Hashtbl.replace visited k ();
        if not a.s_suppressed then
          emit ctx ~id:"N002" ~message:(n002_acc_message entry a.s_what trail) a.s_loc
      end)
    (escaping ctx ~cut:(fun _ -> false) (fun n -> (Effects.summary ctx.eff n).accs) tgt)

(* Float accumulation inside a literal task closure: shared targets only —
   names the closure itself binds are per-task. *)
let scan_closure_accs ctx ~entry ~bound within =
  List.iter
    (fun (s : Sites.site) ->
      match Effects.float_acc s with
      | Some (what, head)
        when (not (Sites.active s "N002"))
             && not (match head with Some x -> Hashtbl.mem bound x | None -> false) ->
          emit ctx ~id:"N002" ~message:(n002_acc_message entry what []) s.loc
      | _ -> ())
    within

(* ------------------------------------------- fan-out site walk (R001+N002) -- *)

(* Every fan-out call among one node's sites; each task found feeds both
   the race check and the accumulation half of N002.  Afterwards, the fold
   half: a binding that fans out, folds floats, and never references the
   sanctioned reduction. *)
let check_fanout_node ctx ~visited ~acc_visited (n : Callgraph.node) =
  let sites = Sites.node_sites ctx.sites n in
  List.iter
    (fun (s : Sites.site) ->
      match s.kind with
      | Apply (id, args) -> (
          match (Effects.par_entry_of_path id.expanded, Effects.first_nolabel args) with
          | Some entry, Some task when Effects.is_closure task ->
              let within = List.filter (Sites.inside task) sites in
              let bound = Sites.binders within in
              let locals = (Effects.summary ctx.eff n).locals in
              if not (Sites.active s "R001") then
                scan_closure ctx ~visited ~entry ~locals ~bound within;
              if not (Sites.active s "N002") then scan_closure_accs ctx ~entry ~bound within
          | Some entry, Some task -> (
              match head_ident task with
              | Some path ->
                  List.iter
                    (fun (tgt : Callgraph.node) ->
                      if not (Sites.active s "R001") then
                        emit_escaping_witnesses ctx ~visited ~entry tgt;
                      if not (Sites.active s "N002") then
                        emit_escaping_accs ctx ~visited:acc_visited ~entry tgt)
                    (Callgraph.resolve (Sites.graph ctx.sites) n.u path)
              | None -> ())
          | _ -> ())
      | _ -> ())
    sites;
  let summary = Effects.summary ctx.eff n in
  if summary.fanout && (not summary.sum_list) && not (Effects.allow "N002" n.attrs) then
    List.iter
      (fun (s : Effects.witness) ->
        if not s.s_suppressed then
          emit ctx ~id:"N002" ~message:(n002_fold_message s.s_what) s.s_loc)
      summary.float_folds

(* ------------------------------------------------------------- driver -- *)

let check sites eff =
  let ctx = { sites; eff; findings = ref [] } in
  let visited = Hashtbl.create 64 in
  let acc_visited = Hashtbl.create 16 in
  List.iter (check_fanout_node ctx ~visited ~acc_visited) (Callgraph.nodes (Sites.graph sites));
  !(ctx.findings)
