(* Flow-sensitive lock-discipline and exception-safety analysis: R002 and
   the L/X-series.  The analyzer's only lockset.  An intraprocedural CFG
   over Parsetree expressions with explicit exceptional edges, and a
   forward may-analysis over a small product lattice:

     per-mutex lock state  (Unknown | NotHeld | Held provs | Mixed provs)
   × pending save/restore obligations on Atomic.t / ref

   Mutexes are identified nominally by [Effects.sym]: the symbolic path of
   the lock expression ("pool.lock", "shard.lock").  Each toplevel binding
   and each closure body is a separate analysis root entered with an
   Unknown lockset — held-ness does not flow through calls (documented
   incompleteness; DESIGN.md §5k).  What a call may lock does: the callee
   lock sets are a [Callgraph.fixpoint] (set union) over [Sites.calls] of
   each binding's [Mutex.lock] sites, and a call reaching any becomes an
   Acquire event.  The CFG walk is the only walk here; every
   flow-insensitive fact — locks, restore sites, raise facts — is read off
   the [Sites] table.

   Exceptional edges:
   - [raise]/[failwith]/[invalid_arg]/[assert] divert to the current
     handler (the enclosing [try]'s handler node, or the root's
     exceptional exit).
   - A call may raise unless it is in a closed whitelist of known-total
     primitives (Mutex/Condition/Atomic operations, [!]/[:=], comparison
     and integer/float arithmetic except [/] and [mod]) or every resolved
     target's can-raise bit is clear — a [Callgraph.fixpoint] (boolean or)
     over each binding's calls in uncaught positions, seeded by its
     uncaught raisers ([Sites.site.uncaught]).  Unresolved calls (stdlib containers,
     local closures, computed heads) are assumed to raise: Hashtbl/Queue
     bodies under a lock need a finalizer, and that is the point.
   - [try]/[match]-with-[exception] handlers catch the body's exceptional
     edge and re-join; without a catch-all pattern the exception also
     propagates outward.
   - [Fun.protect ~finally:F B] is inlined: B's exceptional edge runs a
     copy of F's body and then re-raises; the normal edge runs F's body
     too.  Literal thunks are walked in place (so a finalizer's
     [Mutex.unlock]/restore discharges the obligation in this CFG);
     opaque arguments degrade to may-raise calls routed through the
     finalizer on both edges.

   The checks (what each reports: dataflow.mli).  R002 records each Lock
   or Acquire of [b] while [a] is may-held as a nesting (a, b) and, once
   every root has run, reports a nesting recorded in both orientations at
   each site with the earliest opposite site, (a, a) as a self-deadlock.
   L001 fires on a Blocking event (PerformsIO, or an Optimizer.optimize*
   entry reached through a third [Callgraph.fixpoint]) while any mutex is
   may-held.  L002 (a may-held mutex, once per lock site) and X001 (a
   pending obligation, at the save binding; one is only created when a
   matching restore exists somewhere in the root) read the root's
   exceptional exit.  X002 fires on an unlock at a statically NotHeld
   state; Unknown and Mixed stay silent.

   Suppression is captured at CFG build time from the enclosing
   [@lint.allow "ID"] attribute stack, at the site each finding anchors
   to. *)

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

(* ----------------------------------------------------- CFG construction -- *)

type obligation = {
  o_sym : string;   (* symbolic target: "enabled", "c" *)
  o_var : string;   (* the binder holding the saved value *)
  o_what : string;  (* display: "Atomic.get enabled" *)
  o_loc : Location.t;
  o_sup : bool;     (* X001-suppressed at the save site *)
}

type ev =
  | Nop
  | Lock of { lsym : string; lloc : Location.t; lsup : bool; lr002 : bool }
      (* [lsup]: L002-suppressed, [lr002]: R002-suppressed *)
  | Acquire of { asyms : string list; aloc : Location.t; asup : bool }
      (* a call whose targets may lock [asyms]; the lockset is unchanged *)
  | Unlock of { usym : string; uloc : Location.t; usup : bool }
  | Blocking of { bwhat : string; bloc : Location.t; bsup : bool }
  | Save of obligation
  | Restore of { rsym : string; rvar : string }

type cfg = {
  mutable n : int;
  mutable evs : ev list;          (* reversed *)
  mutable edges : (int * int) list;
}

type pending = {
  p_node : Callgraph.node;        (* the binding the root belongs to *)
  p_expr : expression;
  p_stack : string list list;     (* attribute stack snapshot *)
}

type ctx = {
  g : cfg;
  graph : Callgraph.t;
  eff : Effects.t;
  node : Callgraph.node;
  raises : Callgraph.node -> bool;          (* can-raise, transitively *)
  reaches_optimizer : Callgraph.node -> bool;
  locks : Callgraph.node -> string list;    (* mutexes a call may take *)
  restores : (string * string, unit) Hashtbl.t;  (* (sym, var) in this root *)
  stack : string list list ref;
  queue : pending Queue.t;        (* closure roots discovered while walking *)
}

let node ctx ev =
  let i = ctx.g.n in
  ctx.g.n <- i + 1;
  ctx.g.evs <- ev :: ctx.g.evs;
  i

let edge ctx a b = ctx.g.edges <- (a, b) :: ctx.g.edges
let enqueue ctx e = Queue.add { p_node = ctx.node; p_expr = e; p_stack = !(ctx.stack) } ctx.queue

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
   unresolved IO builtin, or a resolved target whose summary performs IO /
   reaches an optimizer entry. *)
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
            else if List.mem Effects.Performs_io (Effects.total_effects ctx.eff t)
            then Some (Printf.sprintf "%s performs IO" t.name)
            else None)
          targets

(* ------------------------------------------------------------ the walk -- *)

(* [walk ctx ~cur ~exc e]: extend the CFG with [e]'s evaluation starting
   at node [cur]; exceptional control escapes to [exc].  Returns the node
   reached on normal completion. *)
let rec walk ctx ~cur ~exc e =
  ctx.stack := Suppress.allow_ids e.pexp_attributes :: !(ctx.stack);
  let res = walk_desc ctx ~cur ~exc e in
  ctx.stack := List.tl !(ctx.stack);
  res

and walk_list ctx ~cur ~exc es =
  List.fold_left (fun cur e -> walk ctx ~cur ~exc e) cur es

and walk_cases ctx ~entry ~exc ~join cases =
  List.iter
    (fun c ->
      let cur =
        match c.pc_guard with
        | Some g -> walk ctx ~cur:entry ~exc g
        | None -> entry
      in
      let c_end = walk ctx ~cur ~exc c.pc_rhs in
      edge ctx c_end join)
    cases

and walk_desc ctx ~cur ~exc e =
  match e.pexp_desc with
  | Pexp_ident _ | Pexp_constant _ | Pexp_unreachable -> cur
  | Pexp_fun _ | Pexp_function _ | Pexp_lazy _ | Pexp_newtype _ ->
      (* Deferred body: its own root, entered with an Unknown lockset. *)
      enqueue ctx e;
      cur
  | Pexp_apply ({ pexp_desc = Pexp_ident lid; _ }, args) ->
      walk_call ctx ~cur ~exc e (Longident.flatten lid.txt) args
  | Pexp_apply (h, args) ->
      let cur = walk ctx ~cur ~exc h in
      let cur = walk_list ctx ~cur ~exc (List.map snd args) in
      edge ctx cur exc;
      (* computed callee: may raise *)
      cur
  | Pexp_let (_, vbs, body) ->
      let cur =
        List.fold_left
          (fun cur vb ->
            ctx.stack := Suppress.allow_ids vb.pvb_attributes :: !(ctx.stack);
            let cur = walk ctx ~cur ~exc vb.pvb_expr in
            let cur =
              match (Callgraph.var_of_pattern vb.pvb_pat, save_shape vb.pvb_expr) with
              | Some v, Some (s, what) when Hashtbl.mem ctx.restores (s, v) ->
                  let nd =
                    node ctx
                      (Save
                         {
                           o_sym = s;
                           o_var = v;
                           o_what = what;
                           o_loc = vb.pvb_loc;
                           o_sup =
                             active !(ctx.stack) "X001"
                             || List.mem "X001"
                                  (Suppress.allow_ids
                                     vb.pvb_expr.pexp_attributes);
                         })
                  in
                  edge ctx cur nd;
                  nd
              | _ -> cur
            in
            ctx.stack := List.tl !(ctx.stack);
            cur)
          cur vbs
      in
      walk ctx ~cur ~exc body
  | Pexp_sequence (a, b) ->
      let cur = walk ctx ~cur ~exc a in
      walk ctx ~cur ~exc b
  | Pexp_ifthenelse (c, t, f) ->
      let c_end = walk ctx ~cur ~exc c in
      let t_end = walk ctx ~cur:c_end ~exc t in
      let j = node ctx Nop in
      edge ctx t_end j;
      (match f with
      | Some f -> edge ctx (walk ctx ~cur:c_end ~exc f) j
      | None -> edge ctx c_end j);
      j
  | Pexp_match (scrut, cases) ->
      let exc_cases, val_cases =
        List.partition
          (fun c ->
            match c.pc_lhs.ppat_desc with Ppat_exception _ -> true | _ -> false)
          cases
      in
      let j = node ctx Nop in
      let s_end =
        match exc_cases with
        | [] -> walk ctx ~cur ~exc scrut
        | _ ->
            (* exception cases catch only scrutinee evaluation *)
            let h = node ctx Nop in
            let s_end = walk ctx ~cur ~exc:h scrut in
            if not (List.exists exc_catch_all exc_cases) then edge ctx h exc;
            walk_cases ctx ~entry:h ~exc ~join:j exc_cases;
            s_end
      in
      (match val_cases with
      | [] -> edge ctx s_end j
      | _ -> walk_cases ctx ~entry:s_end ~exc ~join:j val_cases);
      j
  | Pexp_try (b, cases) ->
      let h = node ctx Nop in
      let b_end = walk ctx ~cur ~exc:h b in
      if not (List.exists Sites.catch_all_case cases) then edge ctx h exc;
      let j = node ctx Nop in
      edge ctx b_end j;
      walk_cases ctx ~entry:h ~exc ~join:j cases;
      j
  | Pexp_while (c, body) ->
      let head = node ctx Nop in
      edge ctx cur head;
      let c_end = walk ctx ~cur:head ~exc c in
      let b_end = walk ctx ~cur:c_end ~exc body in
      edge ctx b_end head;
      c_end
  | Pexp_for (_, lo, hi, _, body) ->
      let cur = walk ctx ~cur ~exc lo in
      let cur = walk ctx ~cur ~exc hi in
      let head = node ctx Nop in
      edge ctx cur head;
      let b_end = walk ctx ~cur:head ~exc body in
      edge ctx b_end head;
      head
  | Pexp_assert a -> (
      match a.pexp_desc with
      | Pexp_construct ({ txt = Longident.Lident "false"; _ }, None) ->
          edge ctx cur exc;
          node ctx Nop (* dead: no in-edges *)
      | _ ->
          let cur = walk ctx ~cur ~exc a in
          edge ctx cur exc;
          (* Assert_failure *)
          cur)
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> walk ctx ~cur ~exc e
  | Pexp_open (_, e) | Pexp_letmodule (_, _, e) | Pexp_letexception (_, e) ->
      walk ctx ~cur ~exc e
  | Pexp_construct (_, arg) | Pexp_variant (_, arg) -> (
      match arg with Some a -> walk ctx ~cur ~exc a | None -> cur)
  | Pexp_tuple es | Pexp_array es -> walk_list ctx ~cur ~exc es
  | Pexp_record (fields, base) ->
      let cur =
        match base with Some b -> walk ctx ~cur ~exc b | None -> cur
      in
      walk_list ctx ~cur ~exc (List.map snd fields)
  | Pexp_field (b, _) -> walk ctx ~cur ~exc b
  | Pexp_setfield (b, _, v) ->
      let cur = walk ctx ~cur ~exc b in
      walk ctx ~cur ~exc v
  | _ ->
      (* generic fallback: children in syntactic order, no raising *)
      let kids = ref [] in
      Sites.iter_child_exprs (fun c -> kids := c :: !kids) e;
      walk_list ctx ~cur ~exc (List.rev !kids)

and walk_call ctx ~cur ~exc e path args =
  if has_suffix ~suffix:[ "Fun"; "protect" ] path && Effects.first_nolabel args <> None
  then walk_protect ctx ~cur ~exc args
  else begin
    let cur = walk_list ctx ~cur ~exc (List.map snd args) in
    let step cur ev =
      let nd = node ctx ev in
      edge ctx cur nd;
      nd
    in
    let sup id = active !(ctx.stack) id in
    match mutex_op path args with
    | Some (`Lock, s) ->
        step cur (Lock { lsym = s; lloc = e.pexp_loc; lsup = sup "L002"; lr002 = sup "R002" })
    | Some (`Unlock, s) -> step cur (Unlock { usym = s; uloc = e.pexp_loc; usup = sup "X002" })
    | None -> (
        let targets = Callgraph.resolve ctx.graph ctx.node.u path in
        let callee_locks = List.fold_left (fun acc t -> union_syms acc (ctx.locks t)) [] targets in
        let cur =
          if callee_locks = [] then cur
          else step cur (Acquire { asyms = callee_locks; aloc = e.pexp_loc; asup = sup "R002" })
        in
        if raiser path then begin
          edge ctx cur exc;
          node ctx Nop (* dead *)
        end
        else
          match restore_shape ctx path args with
          | Some (s, v) -> step cur (Restore { rsym = s; rvar = v })
          | None when never_raises path -> cur
          | None -> (
              let expanded = Callgraph.expand ctx.graph ctx.node.u path in
              let may_raise = targets = [] || List.exists ctx.raises targets in
              match blocking_of_call ctx path expanded targets with
              | Some what ->
                  let nd =
                    step cur (Blocking { bwhat = what; bloc = e.pexp_loc; bsup = sup "L001" })
                  in
                  if may_raise then edge ctx nd exc;
                  nd
              | None ->
                  if may_raise then edge ctx cur exc;
                  cur))
  end

(* Fun.protect ~finally:F B: run B with its exceptional edge collected,
   then run (a copy of) F on both the normal and the exceptional edge; the
   exceptional copy re-raises afterwards. *)
and walk_protect ctx ~cur ~exc args =
  let finally =
    List.find_map
      (fun (l, a) ->
        match l with
        | Asttypes.Labelled "finally" -> Some a
        | _ -> None)
      args
  in
  let body = Effects.first_nolabel args in
  (* Argument expressions evaluate first; literal thunks contribute no
     events and are inlined below instead. *)
  let cur =
    List.fold_left
      (fun cur (_, a) -> if thunk_body a <> None then cur else walk ctx ~cur ~exc a)
      cur args
  in
  match body with
  | None ->
      (* partial application: just a may-raise call *)
      edge ctx cur exc;
      cur
  | Some b ->
      let exc_collect = node ctx Nop in
      let b_end =
        match thunk_body b with
        | Some inner -> walk ctx ~cur ~exc:exc_collect inner
        | None ->
            (* opaque thunk: may-raise call routed through the finalizer *)
            let call = node ctx Nop in
            edge ctx cur call;
            edge ctx call exc_collect;
            call
      in
      let fin_literal = Option.bind finally thunk_body in
      (match fin_literal with
      | Some fin ->
          let n_end = walk ctx ~cur:b_end ~exc fin in
          let x_end = walk ctx ~cur:exc_collect ~exc fin in
          edge ctx x_end exc;
          (* re-raise *)
          n_end
      | None ->
          (* opaque finalizer: a may-raise call on both edges *)
          let fin_call from_ =
            let c = node ctx Nop in
            edge ctx from_ c;
            edge ctx c exc;
            c
          in
          let n_end = fin_call b_end in
          let x_after = fin_call exc_collect in
          edge ctx x_after exc;
          n_end)

(* --------------------------------------------------- forward analysis -- *)

module StrMap = Map.Make (String)

type prov = { p_loc : Location.t; p_sup : bool }

type lockst = NotHeld | Held of prov list | Mixed of prov list
(* Unknown is the absence of an entry in the map. *)

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

let join_state a b =
  {
    locks = StrMap.merge (fun _ x y -> join_lock x y) a.locks b.locks;
    obs = List.sort_uniq compare (a.obs @ b.obs);
  }

(* Mutexes held on some path into this state, sorted. *)
let may_held st =
  StrMap.fold
    (fun s l acc -> match l with Held _ | Mixed _ -> s :: acc | NotHeld -> acc)
    st.locks []
  |> List.rev

(* [pair held acquired site] records one R002 nesting; [record] one
   L001/X002 finding. *)
let transfer ~record ~pair ev st =
  match ev with
  | Nop -> st
  | Acquire { asyms; aloc; asup } ->
      let site = { p_loc = aloc; p_sup = asup } in
      List.iter (fun h -> List.iter (fun l -> pair h l site) asyms) (may_held st);
      st
  | Lock { lsym; lloc; lsup; lr002 } ->
      List.iter (fun h -> pair h lsym { p_loc = lloc; p_sup = lr002 }) (may_held st);
      let prev =
        match StrMap.find_opt lsym st.locks with
        | Some (Held p | Mixed p) -> p
        | _ -> []
      in
      {
        st with
        locks =
          StrMap.add lsym
            (Held (join_provs [ { p_loc = lloc; p_sup = lsup } ] prev))
            st.locks;
      }
  | Unlock { usym; uloc; usup } ->
      (match StrMap.find_opt usym st.locks with
      | Some NotHeld ->
          if not usup then
            record
              (Finding.of_location ~id:"X002"
                 ~message:
                   (Printf.sprintf
                      "Mutex.unlock on %s without a matching lock on this \
                       path (double unlock?): stdlib mutexes are not \
                       reentrant and error on double release"
                      usym)
                 uloc)
      | _ -> ());
      { st with locks = StrMap.add usym NotHeld st.locks }
  | Blocking { bwhat; bloc; bsup } ->
      (match may_held st with
      | [] -> ()
      | held ->
          if not bsup then
            record
              (Finding.of_location ~id:"L001"
                 ~message:
                   (Printf.sprintf
                      "blocking call (%s) while mutex %s is held: IO/optimizer \
                       latency serializes every domain contending on the \
                       lock; move the call outside the critical section"
                      bwhat (String.concat ", " held))
                 bloc));
      st
  | Save ob -> { st with obs = List.sort_uniq compare (ob :: st.obs) }
  | Restore { rsym; rvar } ->
      {
        st with
        obs =
          List.filter
            (fun o -> not (String.equal o.o_sym rsym && String.equal o.o_var rvar))
            st.obs;
      }

let run_analysis ctx ~entry ~exit_x ~record ~pair =
  let n = ctx.g.n in
  let evs = Array.of_list (List.rev ctx.g.evs) in
  let succs = Array.make n [] in
  List.iter (fun (a, b) -> succs.(a) <- b :: succs.(a)) ctx.g.edges;
  Array.iteri (fun i l -> succs.(i) <- List.sort_uniq compare l) succs;
  let states : state option array = Array.make n None in
  states.(entry) <- Some { locks = StrMap.empty; obs = [] };
  let queue = Queue.create () in
  let inq = Array.make n false in
  let push i =
    if not inq.(i) then begin
      inq.(i) <- true;
      Queue.add i queue
    end
  in
  push entry;
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    inq.(i) <- false;
    match states.(i) with
    | None -> ()
    | Some st ->
        let out = transfer ~record ~pair evs.(i) st in
        List.iter
          (fun j ->
            let merged =
              match states.(j) with
              | None -> out
              | Some t -> join_state t out
            in
            if states.(j) <> Some merged then begin
              states.(j) <- Some merged;
              push j
            end)
          succs.(i)
  done;
  (* Root exceptional exit: leaked locks (L002) and pending save/restore
     obligations (X001). *)
  match states.(exit_x) with
  | None -> ()
  | Some st ->
      StrMap.iter
        (fun s l ->
          match l with
          | Held provs | Mixed provs ->
              List.iter
                (fun p ->
                  if not p.p_sup then
                    record
                      (Finding.of_location ~id:"L002"
                         ~message:
                           (Printf.sprintf
                              "Mutex.lock on %s: an exceptional path exits \
                               without unlocking it; wrap the critical \
                               section in Fun.protect ~finally:(fun () -> \
                               Mutex.unlock %s)"
                              s s)
                         p.p_loc))
                provs
          | NotHeld -> ())
        st.locks;
      List.iter
        (fun o ->
          if not o.o_sup then
            record
              (Finding.of_location ~id:"X001"
                 ~message:
                   (Printf.sprintf
                      "saved state %s (bound as %s) is not restored on some \
                       exceptional path; perform the restore in a Fun.protect \
                       ~finally"
                      o.o_what o.o_var)
                 o.o_loc))
        st.obs

(* --------------------------------------------------------------- roots -- *)

let analyze_root ~sites ~eff ~raises ~reaches_optimizer ~locks ~queue ~record ~pair
    (p : pending) =
  let g = { n = 0; evs = []; edges = [] } in
  let ctx =
    {
      g;
      graph = Sites.graph sites;
      eff;
      node = p.p_node;
      raises;
      reaches_optimizer;
      locks;
      restores = root_restores sites p;
      stack = ref p.p_stack;
      queue;
    }
  in
  let entry = node ctx Nop in
  let exit_x = node ctx Nop in
  let exit_n = node ctx Nop in
  let rec split e =
    match e.pexp_desc with
    | Pexp_fun (_, _, _, b) | Pexp_newtype (_, b) | Pexp_lazy b -> split b
    | Pexp_constraint (b, _) | Pexp_coerce (b, _, _) -> split b
    | _ -> e
  in
  let body = split p.p_expr in
  (match body.pexp_desc with
  | Pexp_function cases -> walk_cases ctx ~entry ~exc:exit_x ~join:exit_n cases
  | _ ->
      let b_end = walk ctx ~cur:entry ~exc:exit_x body in
      edge ctx b_end exit_n);
  run_analysis ctx ~entry ~exit_x ~record ~pair

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

let check sites eff =
  let nodes = Callgraph.nodes (Sites.graph sites) in
  let facts = Hashtbl.create 256 in
  List.iter (fun n -> Hashtbl.replace facts (Callgraph.key n) (raise_facts sites n)) nodes;
  let fact n = Hashtbl.find facts (Callgraph.key n) in
  let raises = Callgraph.fixpoint ~succ:(fun n -> snd (fact n)) ~join:( || ) (fun n -> fst (fact n)) in
  let calls = Sites.calls sites in
  let reaches_optimizer = Callgraph.fixpoint ~succ:calls ~join:( || ) optimizer_entry_node in
  let locks = Callgraph.fixpoint ~succ:calls ~join:union_syms (own_locks sites) in
  (* Deduplicated sticky findings: keyed by (id, location); the final
     transfer of a node runs with its final (largest) in-state, so the
     last write carries the complete message. *)
  let findings : (string * string * int * int, Finding.t) Hashtbl.t =
    Hashtbl.create 16
  in
  let record (f : Finding.t) =
    Hashtbl.replace findings (f.Finding.id, f.Finding.file, f.Finding.line, f.Finding.col) f
  in
  (* R002's nestings, (held, acquired) -> sites, collected over every root
     and judged once all have run. *)
  let pairs : (string * string, prov list) Hashtbl.t = Hashtbl.create 32 in
  let pair a b site =
    let sites = Option.value ~default:[] (Hashtbl.find_opt pairs (a, b)) in
    if not (List.mem site sites) then Hashtbl.replace pairs (a, b) (site :: sites)
  in
  let queue = Queue.create () in
  List.iter
    (fun (n : Callgraph.node) ->
      Queue.add { p_node = n; p_expr = n.expr; p_stack = [ Suppress.allow_ids n.attrs ] } queue)
    nodes;
  while not (Queue.is_empty queue) do
    analyze_root ~sites ~eff ~raises ~reaches_optimizer ~locks ~queue ~record ~pair
      (Queue.pop queue)
  done;
  List.sort Finding.compare
    (Hashtbl.fold (fun _ f acc -> f :: acc) findings [] @ r002_findings pairs)
