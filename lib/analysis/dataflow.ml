(* Flow-sensitive lock-discipline and exception-safety analysis: R002 and
   the L/X-series.  The analyzer's only lockset.  An abstract walk over
   the Parsetree — OCaml control flow is structured, so no graph is
   built — computing a forward may-analysis over a small product lattice:

     per-mutex lock state  (Unknown | NotHeld | Held provs | Mixed provs)
   × pending save/restore obligations on Atomic.t / ref

   Mutexes are identified nominally by [Effects.sym]: the symbolic path of
   the lock expression ("pool.lock", "shard.lock").  Each toplevel binding
   and each closure body is a separate analysis root entered with an
   Unknown lockset — held-ness does not flow through calls (documented
   incompleteness; DESIGN.md §5k).  What a call may lock does: the callee
   lock sets are a [Callgraph.fixpoint] (set union) over [Sites.calls] of
   each binding's [Mutex.lock] sites, and a call reaching any is an
   acquire.  The walk is the only walk here; every flow-insensitive fact —
   locks, restore sites, raise facts — is read off the [Sites] table.

   [walk] returns the state in which an expression completes normally
   ([None]: it cannot).  [if], [match] and [try] join their branches
   where they meet; [while] and [for] iterate the loop-head state to a
   fixpoint with recording off, then walk the body once more from the
   stable head.  Exceptional states join into a [ref] owned by the
   innermost handler:
   - [raise]/[failwith]/[invalid_arg]/[assert] raise to it.
   - A call may raise unless it is in a closed whitelist of known-total
     primitives (Mutex/Condition/Atomic operations, [!]/[:=], comparison
     and integer/float arithmetic except [/] and [mod]) or every resolved
     target's can-raise bit is clear — a [Callgraph.fixpoint] (boolean or)
     over each binding's calls in uncaught positions, seeded by its
     uncaught raisers ([Sites.site.uncaught]).  Unresolved calls (stdlib containers,
     local closures, computed heads) are assumed to raise: Hashtbl/Queue
     bodies under a lock need a finalizer, and that is the point.
   - [try]/[match]-with-[exception] own a handler: its cases are walked
     from the caught state; without a catch-all pattern the exception also
     propagates outward.
   - [Fun.protect ~finally:F B] owns one for B; F is walked from B's
     normal end and from the caught state, which then re-raises; only the
     first walk queues F's closures, so each root is analyzed once.  Literal
     thunks are walked in place (so a finalizer's [Mutex.unlock]/restore
     discharges the obligation); opaque arguments degrade to may-raise
     calls on both ends.
   - The root's exit owns the outermost one.
   Unreachable code is still walked, so the closures inside it are still
   queued as roots.

   The checks (what each reports: dataflow.mli).  R002 records each lock
   or acquire of [b] while [a] is may-held as a nesting (a, b) and, once
   every root has run, reports a nesting recorded in both orientations at
   each site with the earliest opposite site, (a, a) as a self-deadlock.
   L001 fires on a blocking call (an IO builtin, a call that may perform
   IO, or one that reaches an Optimizer.optimize* entry — two more
   [Callgraph.fixpoint]s) while any mutex is may-held.  L002 (a may-held
   mutex, once per lock site) and X001 (a pending obligation, at the save
   binding; one is only created when a matching restore exists somewhere
   in the root) read the root's exceptional exit.  X002 fires on an
   unlock at a NotHeld state; Unknown and Mixed stay silent.  Every
   finding and nesting is recorded from a final state only.

   Suppression is read from the enclosing [@lint.allow "ID"] attribute
   stack, kept by the walk, at the site each finding anchors to. *)

open Parsetree

let has_suffix = Effects.has_suffix
let active stack id = List.exists (List.mem id) stack

let rec ident_name (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident x; _ } -> Some x
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> ident_name e
  | _ -> None

(* [Mutex.lock m] / [Mutex.unlock m] on a nominally identified mutex.  A
   lock of an unnamed mutex (an array cell, a call result) is invisible. *)
let mutex_op path args =
  let subject op =
    Option.map (fun s -> (op, s)) (Option.bind (Effects.first_nolabel args) Effects.sym)
  in
  if has_suffix ~suffix:[ "Mutex"; "lock" ] path then subject `Lock
  else if has_suffix ~suffix:[ "Mutex"; "unlock" ] path then subject `Unlock
  else None

(* ----------------------------------------------- raise classification -- *)

(* Calls that unconditionally raise. *)
let raiser path =
  match path with
  | [ x ] | [ "Stdlib"; x ] ->
      List.mem x [ "raise"; "raise_notrace"; "failwith"; "invalid_arg" ]
  | _ -> false

(* The closed whitelist of known-total primitives.  Deliberately minimal:
   container operations (Hashtbl/Queue/List/Array) are NOT here even when
   individually total, because the analysis treats everything outside this
   set as arbitrary code — a critical section made only of entries below
   provably needs no finalizer, anything else does.  [/] and [mod] raise
   Division_by_zero and stay out. *)
let total_idents =
  [
    "!"; ":="; "~-"; "~-."; "~+"; "~+."; "not"; "ignore"; "ref"; "incr";
    "decr"; "fst"; "snd"; "succ"; "pred"; "min"; "max"; "abs"; "compare";
    "+"; "-"; "*"; "+."; "-."; "*."; "/."; "="; "<>"; "<"; ">"; "<="; ">=";
    "=="; "!="; "^"; "&&"; "||"; "land"; "lor"; "lxor"; "lsl"; "lsr"; "asr";
    "float_of_int"; "int_of_float"; "truncate"; "string_of_int";
    "string_of_float"; "string_of_bool";
  ]

let total_suffixes =
  [
    [ "Mutex"; "lock" ]; [ "Mutex"; "unlock" ]; [ "Mutex"; "try_lock" ];
    [ "Condition"; "wait" ]; [ "Condition"; "signal" ];
    [ "Condition"; "broadcast" ];
    [ "Atomic"; "get" ]; [ "Atomic"; "set" ]; [ "Atomic"; "make" ];
    [ "Atomic"; "incr" ]; [ "Atomic"; "decr" ]; [ "Atomic"; "fetch_and_add" ];
    [ "Atomic"; "compare_and_set" ]; [ "Atomic"; "exchange" ];
  ]

let never_raises path =
  (match path with
  | [ x ] | [ "Stdlib"; x ] -> List.mem x total_idents
  | _ -> false)
  || List.exists (fun suffix -> has_suffix ~suffix path) total_suffixes

(* A [match]-with-[exception] case that catches every exception. *)
let exc_catch_all (c : case) =
  c.pc_guard = None
  &&
  match c.pc_lhs.ppat_desc with
  | Ppat_exception p -> Sites.catch_all_pat p
  | _ -> false

(* The can-raise facts of one binding, read off its uncaught sites:
   whether one of them raises whatever its callees do (an explicit raiser,
   an [assert], a computed or unresolved call), and the resolved callees
   among them — the binding raises iff the first holds or one of those
   does. *)
let raise_facts sites n =
  List.fold_left
    (fun ((local, callees) as acc) (s : Sites.site) ->
      if not s.uncaught then acc
      else
        match s.kind with
        | Assert _ | Computed_apply -> (true, callees)
        | Apply ({ path; targets; _ }, _) ->
            if raiser path || (targets = [] && not (never_raises path)) then (true, callees)
            else if never_raises path then acc
            else (local, List.rev_append targets callees)
        | _ -> acc)
    (false, []) (Sites.node_sites sites n)

(* --------------------------------------------- blocking classification -- *)

(* An alias-expanded reference to Optimizer.optimize*. *)
let optimizer_entry_path expanded =
  match List.rev expanded with
  | last :: "Optimizer" :: _ -> String.starts_with ~prefix:"optimize" last
  | _ -> false

let optimizer_entry_node (n : Callgraph.node) =
  n.Callgraph.u.Callgraph.basename = "optimizer"
  && String.starts_with ~prefix:"optimize" n.Callgraph.name

(* Mutexes a binding's body locks directly, closures included. *)
let own_locks sites n =
  List.sort_uniq String.compare
    (List.filter_map
       (fun (s : Sites.site) ->
         match s.kind with
         | Apply ({ path; _ }, args) -> (
             match mutex_op path args with Some (`Lock, m) -> Some m | _ -> None)
         | _ -> None)
       (Sites.node_sites sites n))

let union_syms a b = if b = [] then a else List.sort_uniq String.compare (a @ b)

(* ------------------------------------------------------------ the state -- *)

type obligation = {
  o_sym : string;   (* symbolic target: "enabled", "c" *)
  o_var : string;   (* the binder holding the saved value *)
  o_what : string;  (* display: "Atomic.get enabled" *)
  o_loc : Location.t;
  o_sup : bool;     (* X001-suppressed at the save site *)
}

module StrMap = Map.Make (String)

type prov = { p_loc : Location.t; p_sup : bool }

type lockst = NotHeld | Held of prov list | Mixed of prov list
(* Unknown is the absence of an entry in the map. *)

(* Where the walk holds a [state option], [None] is unreachable. *)
type state = { locks : lockst StrMap.t; obs : obligation list }

let join_provs a b = List.sort_uniq compare (a @ b)

let join_lock a b =
  match (a, b) with
  | None, None -> None
  | Some x, None | None, Some x -> (
      (* other side is Unknown *)
      match x with
      | NotHeld -> Some NotHeld
      | Held p | Mixed p -> Some (Mixed p))
  | Some NotHeld, Some NotHeld -> Some NotHeld
  | Some (Held p), Some (Held q) -> Some (Held (join_provs p q))
  | Some (Held p | Mixed p), Some (Held q | Mixed q) ->
      Some (Mixed (join_provs p q))
  | Some NotHeld, Some (Held p | Mixed p)
  | Some (Held p | Mixed p), Some NotHeld ->
      Some (Mixed p)

let join a b =
  match (a, b) with
  | None, s | s, None -> s
  | Some a, Some b ->
      Some
        {
          locks = StrMap.merge (fun _ x y -> join_lock x y) a.locks b.locks;
          obs = List.sort_uniq compare (a.obs @ b.obs);
        }

let same = Option.equal (fun a b -> StrMap.equal ( = ) a.locks b.locks && a.obs = b.obs)

(* Mutexes held on some path into this state, sorted. *)
let may_held st =
  StrMap.fold
    (fun s l acc -> match l with Held _ | Mixed _ -> s :: acc | NotHeld -> acc)
    st.locks []
  |> List.rev

(* ------------------------------------------------------------- the roots -- *)

type pending = {
  p_node : Callgraph.node;        (* the binding the root belongs to *)
  p_expr : expression;
  p_stack : string list list;     (* attribute stack snapshot *)
}

(* An unlock or a blocking call, with what the state it is reached in
   says: the mutex's lock state, or the may-held mutexes. *)
type at_site = Unlock_at of string * lockst option | Blocking_at of string * string list

type ctx = {
  graph : Callgraph.t;
  node : Callgraph.node;
  raises : Callgraph.node -> bool;          (* can-raise, transitively *)
  performs_io : Callgraph.node -> bool;     (* may perform IO, transitively *)
  reaches_optimizer : Callgraph.node -> bool;
  locks : Callgraph.node -> string list;    (* mutexes a call may take *)
  restores : (string * string, unit) Hashtbl.t;  (* (sym, var) in this root *)
  mutable stack : string list list;         (* enclosing [@lint.allow] IDs *)
  queue : pending Queue.t;        (* closure roots discovered while walking *)
  record : Finding.t -> unit;     (* one L002/X001 finding *)
  pair : string -> string -> prov -> unit;  (* one R002 nesting *)
  reach : Location.t -> bool -> at_site -> unit;  (* suppressed? *)
  mutable final : bool;           (* off while a loop head iterates *)
}

let enqueue ctx e =
  if ctx.final then Queue.add { p_node = ctx.node; p_expr = e; p_stack = ctx.stack } ctx.queue

(* [fun () -> body] (or any one-argument literal fun): the body, for
   inlining Fun.protect thunks. *)
let rec thunk_body e =
  match e.pexp_desc with
  | Pexp_fun (Asttypes.Nolabel, None, _, b) -> Some b
  | Pexp_constraint (e, _) -> thunk_body e
  | _ -> None

(* A restore shape [Atomic.set x v] / [x := v]: the key (sym x, v). *)
let restore_key path args =
  if has_suffix ~suffix:[ "Atomic"; "set" ] path || path = [ ":=" ] || path = [ "Stdlib"; ":=" ]
  then
    match Effects.nolabel_args args with
    | [ target; value ] -> (
        match (Effects.sym target, ident_name value) with
        | Some s, Some v -> Some (s, v)
        | _ -> None)
    | _ -> None
  else None

(* The restore keys of one root (closures included — inlined finalizers
   are the common carrier): an obligation is only tracked when a matching
   restore exists somewhere in the root. *)
let root_restores sites (p : pending) =
  let whole = p.p_expr == p.p_node.expr in
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun (s : Sites.site) ->
      match s.kind with
      | Apply ({ path; _ }, args) -> (
          match restore_key path args with
          | Some k when whole || Sites.inside p.p_expr s -> Hashtbl.replace tbl k ()
          | _ -> ())
      | _ -> ())
    (Sites.node_sites sites p.p_node);
  tbl

(* A [let v = <save>] shape: Atomic.get / ! of a symbolic target. *)
let save_shape e =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident lid; _ }, args) -> (
      let path = Longident.flatten lid.txt in
      match Option.bind (Effects.first_nolabel args) Effects.sym with
      | None -> None
      | Some s ->
          if has_suffix ~suffix:[ "Atomic"; "get" ] path then
            Some (s, Printf.sprintf "Atomic.get %s" s)
          else if path = [ "!" ] || path = [ "Stdlib"; "!" ] then
            Some (s, Printf.sprintf "!%s" s)
          else None)
  | _ -> None

(* The matching restore shape: a tracked restore key. *)
let restore_shape ctx path args =
  match restore_key path args with
  | Some k when Hashtbl.mem ctx.restores k -> Some k
  | _ -> None

(* What makes a call site blocking: a direct optimizer entry reference, an
   unresolved IO builtin, or a resolved target that reaches an optimizer
   entry or may perform IO. *)
let blocking_of_call ctx path expanded targets =
  if optimizer_entry_path expanded then
    Some (String.concat "." path ^ " (optimizer entry)")
  else
    match targets with
    | [] -> Effects.io_of_path path
    | _ ->
        List.find_map
          (fun (t : Callgraph.node) ->
            if ctx.reaches_optimizer t then
              Some (Printf.sprintf "%s reaches an optimizer entry" t.name)
            else if ctx.performs_io t then Some (Printf.sprintf "%s performs IO" t.name)
            else None)
          targets

(* ------------------------------------------------------------ the events -- *)

(* What each event does to a reachable state.  R002 nestings and the
   states unlocks and blocking calls are reached in are recorded only from
   a final state: never while a loop head is still iterating. *)

let lock ctx sym loc ~sup ~r002 (st : state) =
  if ctx.final then List.iter (fun h -> ctx.pair h sym { p_loc = loc; p_sup = r002 }) (may_held st);
  let prev = match StrMap.find_opt sym st.locks with Some (Held p | Mixed p) -> p | _ -> [] in
  { st with locks = StrMap.add sym (Held (join_provs [ { p_loc = loc; p_sup = sup } ] prev)) st.locks }

(* A call whose targets may lock [syms]: the lockset is unchanged. *)
let acquire ctx syms site (st : state) =
  if ctx.final then List.iter (fun h -> List.iter (fun l -> ctx.pair h l site) syms) (may_held st)

let unlock ctx sym loc ~sup (st : state) =
  if ctx.final then ctx.reach loc sup (Unlock_at (sym, StrMap.find_opt sym st.locks));
  { st with locks = StrMap.add sym NotHeld st.locks }

let blocking ctx what loc ~sup (st : state) =
  if ctx.final then ctx.reach loc sup (Blocking_at (what, may_held st))

let save ob st = { st with obs = List.sort_uniq compare (ob :: st.obs) }

let restore (sym, var) st =
  { st with obs = List.filter (fun o -> not (String.equal o.o_sym sym && String.equal o.o_var var)) st.obs }

(* ------------------------------------------------------------ the walk -- *)

(* Exceptional control joins its state into the innermost handler's. *)
let raise_to exc st = exc := join !exc st

(* The least fixpoint of a loop head entered in [st] whose back edge
   carries [around head], iterated with recording off. *)
let loop_head ctx st around =
  let final = ctx.final in
  ctx.final <- false;
  let rec go head =
    let next = join head (around head) in
    if same next head then head else go next
  in
  let head = go st in
  ctx.final <- final;
  head

(* [walk ctx ~exc st e]: the state after [e] completes normally, entered
   in [st]; its exceptional states join [exc].  An unreachable [e] is
   still walked, so the closures inside it are still queued. *)
let rec walk ctx ~exc st e =
  ctx.stack <- Suppress.allow_ids e.pexp_attributes :: ctx.stack;
  let st = walk_desc ctx ~exc st e in
  ctx.stack <- List.tl ctx.stack;
  st

and walk_list ctx ~exc st es = List.fold_left (walk ctx ~exc) st es

(* Each case from [st] (through its guard), joined where they meet. *)
and walk_cases ctx ~exc st cases =
  List.fold_left
    (fun acc c ->
      let g_end = match c.pc_guard with Some g -> walk ctx ~exc st g | None -> st in
      join acc (walk ctx ~exc g_end c.pc_rhs))
    None cases

and walk_desc ctx ~exc st e =
  match e.pexp_desc with
  | Pexp_ident _ | Pexp_constant _ | Pexp_unreachable -> st
  | Pexp_fun _ | Pexp_function _ | Pexp_lazy _ | Pexp_newtype _ ->
      (* Deferred body: its own root, entered with an Unknown lockset. *)
      enqueue ctx e;
      st
  | Pexp_apply ({ pexp_desc = Pexp_ident lid; _ }, args) ->
      walk_call ctx ~exc st e (Longident.flatten lid.txt) args
  | Pexp_apply (h, args) ->
      (* computed callee: may raise *)
      let st = walk_list ctx ~exc (walk ctx ~exc st h) (List.map snd args) in
      raise_to exc st;
      st
  | Pexp_let (_, vbs, body) ->
      let bind st vb =
        ctx.stack <- Suppress.allow_ids vb.pvb_attributes :: ctx.stack;
        let st = walk ctx ~exc st vb.pvb_expr in
        let st =
          match (Callgraph.var_of_pattern vb.pvb_pat, save_shape vb.pvb_expr) with
          | Some v, Some (s, what) when Hashtbl.mem ctx.restores (s, v) ->
              let o_sup =
                active ctx.stack "X001"
                || List.mem "X001" (Suppress.allow_ids vb.pvb_expr.pexp_attributes)
              in
              Option.map (save { o_sym = s; o_var = v; o_what = what; o_loc = vb.pvb_loc; o_sup }) st
          | _ -> st
        in
        ctx.stack <- List.tl ctx.stack;
        st
      in
      walk ctx ~exc (List.fold_left bind st vbs) body
  | Pexp_sequence (a, b) -> walk ctx ~exc (walk ctx ~exc st a) b
  | Pexp_ifthenelse (c, t, f) ->
      let st = walk ctx ~exc st c in
      let t_end = walk ctx ~exc st t in
      join t_end (match f with Some f -> walk ctx ~exc st f | None -> st)
  | Pexp_match (scrut, cases) -> (
      let exc_cases, val_cases =
        List.partition
          (fun c -> match c.pc_lhs.ppat_desc with Ppat_exception _ -> true | _ -> false)
          cases
      in
      (* exception cases catch only scrutinee evaluation *)
      let caught = ref None in
      let s_end = walk ctx ~exc:caught st scrut in
      if not (List.exists exc_catch_all exc_cases) then raise_to exc !caught;
      let x_end = walk_cases ctx ~exc !caught exc_cases in
      match val_cases with
      | [] -> join x_end s_end
      | _ -> join x_end (walk_cases ctx ~exc s_end val_cases))
  | Pexp_try (b, cases) ->
      let caught = ref None in
      let b_end = walk ctx ~exc:caught st b in
      if not (List.exists Sites.catch_all_case cases) then raise_to exc !caught;
      join b_end (walk_cases ctx ~exc !caught cases)
  | Pexp_while (c, body) ->
      let head = loop_head ctx st (fun head -> walk ctx ~exc (walk ctx ~exc head c) body) in
      let c_end = walk ctx ~exc head c in
      ignore (walk ctx ~exc c_end body);
      c_end
  | Pexp_for (_, lo, hi, _, body) ->
      let st = walk ctx ~exc (walk ctx ~exc st lo) hi in
      let head = loop_head ctx st (fun head -> walk ctx ~exc head body) in
      ignore (walk ctx ~exc head body);
      head
  | Pexp_assert { pexp_desc = Pexp_construct ({ txt = Longident.Lident "false"; _ }, None); _ } ->
      raise_to exc st;
      None
  | Pexp_assert a ->
      (* Assert_failure *)
      let st = walk ctx ~exc st a in
      raise_to exc st;
      st
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> walk ctx ~exc st e
  | Pexp_open (_, e) | Pexp_letmodule (_, _, e) | Pexp_letexception (_, e) ->
      walk ctx ~exc st e
  | Pexp_construct (_, arg) | Pexp_variant (_, arg) -> (
      match arg with Some a -> walk ctx ~exc st a | None -> st)
  | Pexp_tuple es | Pexp_array es -> walk_list ctx ~exc st es
  | Pexp_record (fields, base) ->
      let st = match base with Some b -> walk ctx ~exc st b | None -> st in
      walk_list ctx ~exc st (List.map snd fields)
  | Pexp_field (b, _) -> walk ctx ~exc st b
  | Pexp_setfield (b, _, v) -> walk ctx ~exc (walk ctx ~exc st b) v
  | _ ->
      (* generic fallback: children in syntactic order, no raising *)
      let kids = ref [] in
      Sites.iter_child_exprs (fun c -> kids := c :: !kids) e;
      walk_list ctx ~exc st (List.rev !kids)

and walk_call ctx ~exc st e path args =
  match Effects.first_nolabel args with
  | Some body when has_suffix ~suffix:[ "Fun"; "protect" ] path ->
      walk_protect ctx ~exc st body args
  | _ -> (
      let st = walk_list ctx ~exc st (List.map snd args) in
      let loc = e.pexp_loc and sup id = active ctx.stack id in
      match mutex_op path args with
      | Some (`Lock, s) -> Option.map (lock ctx s loc ~sup:(sup "L002") ~r002:(sup "R002")) st
      | Some (`Unlock, s) -> Option.map (unlock ctx s loc ~sup:(sup "X002")) st
      | None -> (
          let targets = Callgraph.resolve ctx.graph ctx.node.u path in
          let callee_locks = List.fold_left (fun acc t -> union_syms acc (ctx.locks t)) [] targets in
          if callee_locks <> [] then
            Option.iter (acquire ctx callee_locks { p_loc = loc; p_sup = sup "R002" }) st;
          if raiser path then begin
            raise_to exc st;
            None
          end
          else
            match restore_shape ctx path args with
            | Some k -> Option.map (restore k) st
            | None when never_raises path -> st
            | None ->
                let expanded = Callgraph.expand ctx.graph ctx.node.u path in
                Option.iter
                  (fun what -> Option.iter (blocking ctx what loc ~sup:(sup "L001")) st)
                  (blocking_of_call ctx path expanded targets);
                if targets = [] || List.exists ctx.raises targets then raise_to exc st;
                st))

(* Fun.protect ~finally:F B: B's exceptional states are caught, and F runs
   from both B's normal end and its exceptional end, re-raising after the
   latter.  Literal thunks are walked in place (so a finalizer's
   [Mutex.unlock]/restore discharges the obligation); opaque ones are
   may-raise calls. *)
and walk_protect ctx ~exc st body args =
  (* Argument expressions evaluate first; literal thunks are inlined below. *)
  let st =
    List.fold_left
      (fun st (_, a) -> if thunk_body a <> None then st else walk ctx ~exc st a)
      st args
  in
  let caught = ref None in
  let b_end =
    match thunk_body body with
    | Some inner -> walk ctx ~exc:caught st inner
    | None ->
        raise_to caught st;
        st
  in
  let finally =
    List.find_map (function Asttypes.Labelled "finally", a -> Some a | _ -> None) args
  in
  match Option.bind finally thunk_body with
  | Some fin ->
      let n_end = walk ctx ~exc b_end fin in
      (* The walk above queued [fin]'s closures; a scratch queue drops the
         second walk's copies. *)
      raise_to exc (walk { ctx with queue = Queue.create () } ~exc !caught fin);
      n_end
  | None ->
      raise_to exc b_end;
      raise_to exc !caught;
      b_end

(* One root, entered with an Unknown lockset.  Its exceptional exit is
   judged once the walk is done: a may-held mutex is an L002 at each of
   its lock sites, a pending obligation an X001 at its save binding. *)
let analyze_root ctx root =
  let exit_x = ref None and entry = Some { locks = StrMap.empty; obs = [] } in
  let rec split e =
    match e.pexp_desc with
    | Pexp_fun (_, _, _, b) | Pexp_newtype (_, b) | Pexp_lazy b -> split b
    | Pexp_constraint (b, _) | Pexp_coerce (b, _, _) -> split b
    | _ -> e
  in
  let body = split root in
  ignore
    (match body.pexp_desc with
    | Pexp_function cases -> walk_cases ctx ~exc:exit_x entry cases
    | _ -> walk ctx ~exc:exit_x entry body);
  Option.iter
    (fun (st : state) ->
      StrMap.iter
        (fun s l ->
          match l with
          | Held provs | Mixed provs ->
              List.iter
                (fun p ->
                  if not p.p_sup then
                    ctx.record
                      (Finding.of_location ~id:"L002"
                         ~message:
                           (Printf.sprintf
                              "Mutex.lock on %s: an exceptional path exits without \
                               unlocking it; wrap the critical section in \
                               Fun.protect ~finally:(fun () -> Mutex.unlock %s)"
                              s s)
                         p.p_loc))
                provs
          | NotHeld -> ())
        st.locks;
      List.iter
        (fun o ->
          if not o.o_sup then
            ctx.record
              (Finding.of_location ~id:"X001"
                 ~message:
                   (Printf.sprintf
                      "saved state %s (bound as %s) is not restored on some exceptional \
                       path; perform the restore in a Fun.protect ~finally"
                      o.o_what o.o_var)
                 o.o_loc))
        st.obs)
    !exit_x

(* ---------------------------------------------------------------- R002 -- *)

let r002_inversion_message b a (rev : prov) =
  let p = rev.p_loc.Location.loc_start in
  Printf.sprintf
    "Mutex.lock on %s while %s is held, but the opposite order occurs at %s:%d: \
     inconsistent acquisition order can deadlock; pick one global order"
    b a p.Lexing.pos_fname p.Lexing.pos_lnum

let r002_self_message a =
  Printf.sprintf
    "Mutex.lock on %s while %s is already held: stdlib mutexes are not reentrant — \
     this self-deadlocks"
    a a

(* Every recorded nesting [(held, acquired)] whose reverse was recorded
   too is an inversion, reported at each unsuppressed site naming the
   earliest reverse site; [(a, a)] is a self-deadlock. *)
let r002_findings pairs =
  let pos (s : prov) =
    let p = s.p_loc.Location.loc_start in
    (p.Lexing.pos_fname, p.Lexing.pos_lnum, p.Lexing.pos_cnum)
  in
  let first_site sites =
    List.hd (List.sort (fun a b -> compare (pos a) (pos b)) sites)
  in
  Hashtbl.fold
    (fun (a, b) sites acc ->
      let message =
        if String.equal a b then Some (r002_self_message a)
        else
          Option.map
            (fun rev -> r002_inversion_message b a (first_site rev))
            (Hashtbl.find_opt pairs (b, a))
      in
      match message with
      | None -> acc
      | Some message ->
          List.fold_left
            (fun acc (s : prov) ->
              if s.p_sup then acc
              else Finding.of_location ~id:"R002" ~message s.p_loc :: acc)
            acc sites)
    pairs []

(* X002 and L001, from the join of every final state a site is reached
   in: an unlock at NotHeld, a blocking call with a mutex may-held. *)
let join_at a b =
  match (a, b) with
  | Unlock_at (sym, x), Unlock_at (_, y) -> Unlock_at (sym, join_lock x y)
  | Blocking_at (what, x), Blocking_at (_, y) -> Blocking_at (what, union_syms x y)
  | _, b -> b

let at_site_finding loc (sup, at) =
  match at with
  | _ when sup -> None
  | Unlock_at (sym, Some NotHeld) ->
      Some
        (Finding.of_location ~id:"X002"
           ~message:
             (Printf.sprintf
                "Mutex.unlock on %s without a matching lock on this path (double \
                 unlock?): stdlib mutexes are not reentrant and error on double release"
                sym)
           loc)
  | Blocking_at (what, (_ :: _ as held)) ->
      Some
        (Finding.of_location ~id:"L001"
           ~message:
             (Printf.sprintf
                "blocking call (%s) while mutex %s is held: IO/optimizer latency \
                 serializes every domain contending on the lock; move the call \
                 outside the critical section"
                what (String.concat ", " held))
           loc)
  | _ -> None

let check sites eff =
  let graph = Sites.graph sites in
  let nodes = Callgraph.nodes graph in
  let facts = Hashtbl.create 256 in
  List.iter (fun n -> Hashtbl.replace facts (Callgraph.key n) (raise_facts sites n)) nodes;
  let fact n = Hashtbl.find facts (Callgraph.key n) in
  let raises = Callgraph.fixpoint ~succ:(fun n -> snd (fact n)) ~join:( || ) (fun n -> fst (fact n)) in
  let calls = Sites.calls sites in
  let performs_io =
    Callgraph.fixpoint ~succ:calls ~join:( || ) (fun n -> (Effects.summary eff n).io <> [])
  in
  let reaches_optimizer = Callgraph.fixpoint ~succ:calls ~join:( || ) optimizer_entry_node in
  let locks = Callgraph.fixpoint ~succ:calls ~join:union_syms (own_locks sites) in
  (* L002 and X001, judged once per root. *)
  let findings = ref [] in
  let record f = findings := f :: !findings in
  (* R002's nestings, (held, acquired) -> sites, collected over every root
     and judged once all have run. *)
  let pairs : (string * string, prov list) Hashtbl.t = Hashtbl.create 32 in
  let pair a b site =
    let sites = Option.value ~default:[] (Hashtbl.find_opt pairs (a, b)) in
    if not (List.mem site sites) then Hashtbl.replace pairs (a, b) (site :: sites)
  in
  (* Unlocks and blocking calls, each with the join of the final states
     it is reached in — a finalizer is walked from two ends. *)
  let at = Hashtbl.create 64 in
  let reach loc sup a =
    let a = match Hashtbl.find_opt at loc with Some (_, b) -> join_at b a | None -> a in
    Hashtbl.replace at loc (sup, a)
  in
  let queue = Queue.create () in
  List.iter
    (fun (n : Callgraph.node) ->
      Queue.add { p_node = n; p_expr = n.expr; p_stack = [ Suppress.allow_ids n.attrs ] } queue)
    nodes;
  while not (Queue.is_empty queue) do
    let p = Queue.pop queue in
    analyze_root
      {
        graph;
        node = p.p_node;
        raises;
        performs_io;
        reaches_optimizer;
        locks;
        restores = root_restores sites p;
        stack = p.p_stack;
        queue;
        record;
        pair;
        reach;
        final = true;
      }
      p.p_expr
  done;
  List.sort Finding.compare
    (!findings
    @ Hashtbl.fold (fun loc s acc -> Option.to_list (at_site_finding loc s) @ acc) at []
    @ r002_findings pairs)
