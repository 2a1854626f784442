(* R001 (domain races on shared state) and N002 (order-fragile parallel
   float reduction), run over the cross-unit call graph and the [Effects]
   summaries computed on it.  The rest of the R-series lives elsewhere:
   R002 (lock order) is a query on [Dataflow]'s flow-sensitive lockset and
   R003 (non-atomic read-modify-write) a unit-local check in [Checks].

   R001  module-level or escaping mutable state reached from a parallel
         task: a closure (or named function) passed to [Par.map] /
         [Par.map_list] / [Par.iter] / [Domain.spawn] that captures a raw
         mutable local ([ref], [Hashtbl.create], ...), mutates a field of a
         captured value, or — transitively, through helpers in any unit —
         references raw module-toplevel mutable state.  The transitive core
         is one [Callgraph.reach] per escaping task over [Effects.calls],
         cut at lock-disciplined bindings (a body taking [Mutex.lock], or
         [@lint.allow "R001"]), collecting [Effects.local_globals] of every
         binding it enters; the trail in the message runs from the task
         down to the access's host, host included.  Wrapped state (Atomic,
         Mutex, Domain.DLS, Lazy, and the Interner.Cache, Dense and Pairs
         memo tables built on them) never classifies as raw.
   N002  a parallel fan-out combining float work without [Par.sum_list]:
         either the escaping task accumulates into shared state
         ([t := !t +. x] — racy and order-varying; the same walk with no
         cut over [Effects.local_accumulations], because a mutex
         serializes the updates without fixing their order), or the
         fan-out host folds float results with a bare
         [List.fold_left]/[Array.fold_left] whose grouping the scheduler
         picks.

   All checks honor [@lint.allow "ID"] attribute suppression at the site
   the finding anchors to, plus allow-file entries downstream. *)

open Parsetree

(* ---------------------------------------------------------------- R001 -- *)

type r001_ctx = {
  graph : Callgraph.t;
  eff : Effects.t;
  findings : Finding.t list ref;
}

let r001_capture_message entry name kind =
  Printf.sprintf
    "closure passed to %s captures mutable local %s (%s): shared across domains \
     without synchronization; use Atomic/Mutex or return per-item results"
    entry name kind

let r001_global_message entry name kind path trail =
  let via =
    match trail with [] -> "" | t -> Printf.sprintf " via %s" (String.concat " -> " t)
  in
  Printf.sprintf
    "parallel task passed to %s reaches module-toplevel mutable state %s (%s, %s)%s: \
     unsynchronized cross-domain access; wrap in Atomic/Mutex/Domain.DLS"
    entry name kind path via

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

(* The [sites] of every binding a task that escapes to another domain
   reaches without entering a [cut] binding, each with its trail: the
   bindings from the task down to the site's host, host included. *)
let escaping ctx ~cut sites (tgt : Callgraph.node) =
  List.concat_map
    (fun ((host : Callgraph.node), trail) ->
      let via = List.map (fun (n : Callgraph.node) -> n.name) (trail @ [ host ]) in
      List.map (fun s -> (s, via)) (sites host))
    (Callgraph.reach ~succ:(Effects.calls ctx.eff) ~cut tgt)

(* A named function that escapes to another domain: every raw-global
   access it reaches through bindings that are not lock-disciplined.
   [visited] is global — one finding per racy global reference site is
   enough no matter how many fan-out sites reach it. *)
let emit_escaping_witnesses ctx ~visited ~entry (tgt : Callgraph.node) =
  List.iter
    (fun ((w : Effects.race_witness), via) ->
      let k = site_key w.w_loc w.w_global in
      if not (Hashtbl.mem visited k) then begin
        Hashtbl.replace visited k ();
        if not w.w_suppressed then
          emit ctx ~id:"R001"
            ~message:(r001_global_message entry w.w_global w.w_kind w.w_path via)
            w.w_loc
      end)
    (escaping ctx ~cut:(Effects.lock_disciplined ctx.eff) (Effects.local_globals ctx.eff) tgt)

(* Scan a literal closure passed to a fan-out point: the capture checks plus
   the witness query for every helper the closure calls. *)
let scan_closure ctx ~visited ~entry ~locals ~host (c : expression) =
  let bound = Effects.bound_vars c in
  let stack = ref [] in
  let active id = List.exists (List.mem id) !stack in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          stack := Suppress.allow_ids e.pexp_attributes :: !stack;
          (match e.pexp_desc with
          | Pexp_ident lid -> (
              let path = Longident.flatten lid.txt in
              match path with
              | [ x ] when Hashtbl.mem bound x -> ()
              | [ x ] when Hashtbl.mem locals x ->
                  if not (active "R001") then
                    emit ctx ~id:"R001"
                      ~message:(r001_capture_message entry x (Hashtbl.find locals x))
                      e.pexp_loc
              | _ ->
                  List.iter
                    (fun (tgt : Callgraph.node) ->
                      match Effects.raw_global ctx.eff tgt with
                      | Some kind ->
                          if not (active "R001") then
                            emit ctx ~id:"R001"
                              ~message:(r001_global_message entry tgt.name kind tgt.u.path [])
                              e.pexp_loc
                      | None -> emit_escaping_witnesses ctx ~visited ~entry tgt)
                    (Callgraph.resolve ctx.graph host path))
          | Pexp_setfield (base, flid, _) -> (
              (* Any [x.f <- e] is a mutable-field write by construction; the
                 only question is whether [x] is the closure's own. *)
              match List.rev (Longident.flatten flid.txt) with
              | f :: _ ->
                  let base_bound =
                    match base.pexp_desc with
                    | Pexp_ident { txt = Longident.Lident x; _ } -> Hashtbl.mem bound x
                    | _ -> false
                  in
                  if (not base_bound) && not (active "R001") then
                    emit ctx ~id:"R001" ~message:(r001_setfield_message entry f)
                      e.pexp_loc
              | [] -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e;
          stack := List.tl !stack)
    }
  in
  it.expr it c

let rec head_ident (e : expression) =
  match e.pexp_desc with
  | Pexp_ident lid -> Some (Longident.flatten lid.txt)
  | Pexp_apply (f, _) -> head_ident f
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> head_ident e
  | _ -> None

(* ---------------------------------------------------------------- N002 -- *)

let n002_acc_message entry what trail =
  let via =
    match trail with [] -> "" | t -> Printf.sprintf " via %s" (String.concat " -> " t)
  in
  Printf.sprintf
    "parallel task passed to %s performs %s%s: the accumulation order varies \
     across domains, so the sum is not reproducible; return per-task results \
     and combine with Par.sum_list"
    entry what via

let n002_fold_message what =
  Printf.sprintf
    "%s next to a parallel fan-out: float addition is not associative and the \
     fold order is a scheduling accident away from changing; combine the \
     fan-out's results with Par.sum_list (fixed sequential reduction)"
    what

let emit_escaping_accs ctx ~visited ~entry (tgt : Callgraph.node) =
  List.iter
    (fun ((a : Effects.site), via) ->
      let k = site_key a.s_loc "" in
      if not (Hashtbl.mem visited k) then begin
        Hashtbl.replace visited k ();
        if not a.s_suppressed then
          emit ctx ~id:"N002" ~message:(n002_acc_message entry a.s_what via) a.s_loc
      end)
    (escaping ctx ~cut:(fun _ -> false) (Effects.local_accumulations ctx.eff) tgt)

(* Float accumulation inside a literal task closure: shared targets only —
   names the closure itself binds are per-task. *)
let scan_closure_accs ctx ~entry (c : expression) =
  let bound = Effects.bound_vars c in
  List.iter
    (fun (loc, what, suppressed) ->
      if not suppressed then
        emit ctx ~id:"N002" ~message:(n002_acc_message entry what []) loc)
    (Effects.float_acc_sites ~exempt:(Hashtbl.mem bound) c)

(* ------------------------------------------- fan-out site walk (R001+N002) -- *)

(* Walk one node's body looking for fan-out calls; each task found feeds
   both the race check and the accumulation half of N002.  Afterwards, the
   fold half: a binding that fans out, folds floats, and never references
   the sanctioned reduction. *)
let check_fanout_node ctx ~visited ~acc_visited (n : Callgraph.node) =
  let locals = Effects.raw_locals ctx.eff n in
  let stack = ref [ Suppress.allow_ids n.attrs ] in
  let active id = List.exists (List.mem id) !stack in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          stack := Suppress.allow_ids e.pexp_attributes :: !stack;
          (match e.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident lid; _ }, args) -> (
              match
                Effects.par_entry_of_path
                  (Callgraph.expand ctx.graph n.u (Longident.flatten lid.txt))
              with
              | Some entry -> (
                  match Effects.first_nolabel args with
                  | Some task when Effects.is_closure task ->
                      if not (active "R001") then
                        scan_closure ctx ~visited ~entry ~locals ~host:n.u task;
                      if not (active "N002") then scan_closure_accs ctx ~entry task
                  | Some task -> (
                      match head_ident task with
                      | Some path ->
                          List.iter
                            (fun (tgt : Callgraph.node) ->
                              if not (active "R001") then
                                emit_escaping_witnesses ctx ~visited ~entry tgt;
                              if not (active "N002") then
                                emit_escaping_accs ctx ~visited:acc_visited ~entry tgt)
                            (Callgraph.resolve ctx.graph n.u path)
                      | None -> ())
                  | None -> ())
              | None -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e;
          stack := List.tl !stack);
    }
  in
  it.expr it n.expr;
  if
    Effects.has_par_fanout ctx.eff n
    && (not (Effects.uses_sum_list ctx.eff n))
    && not (Effects.allow "N002" n.attrs)
  then
    List.iter
      (fun (s : Effects.site) ->
        if not s.Effects.s_suppressed then
          emit ctx ~id:"N002" ~message:(n002_fold_message s.s_what) s.s_loc)
      (Effects.float_folds ctx.eff n)

(* ------------------------------------------------------------- driver -- *)

let check graph eff =
  let ctx = { graph; eff; findings = ref [] } in
  let visited = Hashtbl.create 64 in
  let acc_visited = Hashtbl.create 16 in
  List.iter (check_fanout_node ctx ~visited ~acc_visited) (Callgraph.nodes graph);
  !(ctx.findings)
