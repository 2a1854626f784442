(* Flow-sensitive exception-safety analysis: X001.  An abstract walk over
   the Parsetree — OCaml control flow is structured, so no graph is
   built — computing a forward may-analysis of the pending save/restore
   obligations on Atomic.t / ref.

   Each toplevel binding and each closure body is a separate analysis
   root.  The walk is the only walk here; every flow-insensitive fact —
   restore sites, raise facts — is read off the [Sites] table.

   [walk] returns the state in which an expression completes normally
   ([None]: it cannot).  [if], [match] and [try] join their branches
   where they meet; [while] and [for] iterate the loop-head state to a
   fixpoint, then walk the body once more from the stable head.
   Exceptional states join into a [ref] owned by the innermost handler:
   - [raise]/[failwith]/[invalid_arg]/[assert] raise to it.
   - A call may raise unless it is in a closed whitelist of known-total
     primitives (Atomic operations, [!]/[:=], comparison and
     integer/float arithmetic except [/] and [mod]) or every resolved
     target's can-raise bit is clear — a [Callgraph.fixpoint] (boolean or)
     over each binding's calls in uncaught positions, seeded by its
     uncaught raisers ([Sites.site.uncaught]).  Unresolved calls (stdlib containers,
     local closures, computed heads) are assumed to raise.
   - [try]/[match]-with-[exception] own a handler: its cases are walked
     from the caught state; without a catch-all pattern the exception also
     propagates outward.
   - [Fun.protect ~finally:F B] owns one for B; F is walked from B's
     normal end and from the caught state, which then re-raises; only the
     first walk queues F's closures, so each root is analyzed once.  Literal
     thunks are walked in place (so a finalizer's restore discharges the
     obligation); opaque arguments degrade to may-raise calls on both ends.
   - The root's exit owns the outermost one.
   Unreachable code is still walked, so the closures inside it are still
   queued as roots.

   The check (dataflow.mli): a pending obligation at the root's
   exceptional exit is an X001 at its save binding.  An obligation is only
   created when a matching restore exists somewhere in the root.

   Suppression is read from the enclosing [@lint.allow "ID"] attribute
   stack, kept by the walk, at the save binding. *)

open Parsetree

let has_suffix = Effects.has_suffix
let active stack id = List.exists (List.mem id) stack

let rec ident_name (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident x; _ } -> Some x
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> ident_name e
  | _ -> None

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
   set as arbitrary code — a stretch between a save and its restore made
   only of entries below provably needs no finalizer, anything else does.
   [/] and [mod] raise Division_by_zero and stay out. *)
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

(* ------------------------------------------------------------ the state -- *)

type obligation = {
  o_sym : string;   (* symbolic target: "enabled", "c" *)
  o_var : string;   (* the binder holding the saved value *)
  o_what : string;  (* display: "Atomic.get enabled" *)
  o_loc : Location.t;
  o_sup : bool;     (* X001-suppressed at the save site *)
}

(* A state is the sorted list of pending obligations.  Where the walk
   holds a state option, [None] is unreachable. *)
let join a b =
  match (a, b) with
  | None, s | s, None -> s
  | Some a, Some b -> Some (List.sort_uniq compare (a @ b))

let same = Option.equal ( = )

(* ------------------------------------------------------------- the roots -- *)

type pending = {
  p_node : Callgraph.node;        (* the binding the root belongs to *)
  p_expr : expression;
  p_stack : string list list;     (* attribute stack snapshot *)
}

type ctx = {
  graph : Callgraph.t;
  node : Callgraph.node;
  raises : Callgraph.node -> bool;          (* can-raise, transitively *)
  restores : (string * string, unit) Hashtbl.t;  (* (sym, var) in this root *)
  mutable stack : string list list;         (* enclosing [@lint.allow] IDs *)
  queue : pending Queue.t;        (* closure roots discovered while walking *)
  record : Finding.t -> unit;     (* one X001 finding *)
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

(* ------------------------------------------------------------ the events -- *)

let save ob st = List.sort_uniq compare (ob :: st)

let restore (sym, var) st =
  List.filter (fun o -> not (String.equal o.o_sym sym && String.equal o.o_var var)) st

(* ------------------------------------------------------------ the walk -- *)

(* Exceptional control joins its state into the innermost handler's. *)
let raise_to exc st = exc := join !exc st

(* The least fixpoint of a loop head entered in [st] whose back edge
   carries [around head], iterated with closure queueing off. *)
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
      (* Deferred body: its own root. *)
      enqueue ctx e;
      st
  | Pexp_apply ({ pexp_desc = Pexp_ident lid; _ }, args) ->
      walk_call ctx ~exc st (Longident.flatten lid.txt) args
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

and walk_call ctx ~exc st path args =
  match Effects.first_nolabel args with
  | Some body when has_suffix ~suffix:[ "Fun"; "protect" ] path ->
      walk_protect ctx ~exc st body args
  | _ -> (
      let st = walk_list ctx ~exc st (List.map snd args) in
      if raiser path then begin
        raise_to exc st;
        None
      end
      else
        match restore_shape ctx path args with
        | Some k -> Option.map (restore k) st
        | None when never_raises path -> st
        | None ->
            let targets = Callgraph.resolve ctx.graph ctx.node.u path in
            if targets = [] || List.exists ctx.raises targets then raise_to exc st;
            st)

(* Fun.protect ~finally:F B: B's exceptional states are caught, and F runs
   from both B's normal end and its exceptional end, re-raising after the
   latter.  Literal thunks are walked in place (so a finalizer's restore
   discharges the obligation); opaque ones are may-raise calls. *)
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

(* One root.  Its exceptional exit is judged once the walk is done: a
   pending obligation is an X001 at its save binding. *)
let analyze_root ctx root =
  let exit_x = ref None and entry = Some [] in
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
    (List.iter (fun o ->
         if not o.o_sup then
           ctx.record
             (Finding.of_location ~id:"X001"
                ~message:
                  (Printf.sprintf
                     "saved state %s (bound as %s) is not restored on some exceptional \
                      path; perform the restore in a Fun.protect ~finally"
                     o.o_what o.o_var)
                o.o_loc)))
    !exit_x

let check sites =
  let graph = Sites.graph sites in
  let nodes = Callgraph.nodes graph in
  let facts = Hashtbl.create 256 in
  List.iter (fun n -> Hashtbl.replace facts (Callgraph.key n) (raise_facts sites n)) nodes;
  let fact n = Hashtbl.find facts (Callgraph.key n) in
  let raises = Callgraph.fixpoint ~succ:(fun n -> snd (fact n)) ~join:( || ) (fun n -> fst (fact n)) in
  let findings = ref [] in
  let record f = findings := f :: !findings in
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
        restores = root_restores sites p;
        stack = p.p_stack;
        queue;
        record;
        final = true;
      }
      p.p_expr
  done;
  List.sort Finding.compare !findings
