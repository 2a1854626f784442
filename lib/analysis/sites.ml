(* The site table: one parsetree walk per compilation unit.

   The walk is a single [Ast_iterator] over the whole structure.  It
   mirrors [Callgraph]'s binding collection at the module level (toplevel
   value bindings, recursing into nested structures), so each
   node's right-hand side is walked as that node; everything else — a
   toplevel [;;] expression, a functor body, a class — is walked with no
   binding.  Along the way it keeps the context every site records:

   - the enclosing closures ([fun], [function], [lazy], [newtype]), so a
     check can ask whether a site sits inside a given dataflow root;
   - the [@lint.allow] stack: the attributes of every enclosing
     expression and value binding, nested [let]s included;
   - whether the site is evaluated by the binding itself, outside any
     closure, default argument or catch-all [try] body (an exception
     raised there escapes the binding).  A node's own chain of
     parameters — [fun]/[newtype]/constraints down to the body, and a
     [function] at its end — is evaluated when the binding is called, so
     it does not defer.

   Each identifier is resolved here.  When a node's walk ends, a
   reference whose single-component name some pattern of the node binds
   is marked shadowed (over-approximate on purpose: a sibling-branch
   binder only ever silences an edge), and the targets of the other
   references form the node's call list. *)

open Parsetree

type ident = {
  path : string list;
  expanded : string list;
  targets : Callgraph.node list;
  mutable shadowed : bool;
}

type kind =
  | Ref of ident
  | Apply of ident * (Asttypes.arg_label * expression) list
  | Computed_apply
  | Binder of string
  | Let of string * expression
  | Setfield of expression * string * expression
  | Assert of expression

type site = {
  loc : Location.t;
  kind : kind;
  binding : Callgraph.node option;
  closures : expression list;
  allow : string list list;
  uncaught : bool;
}

type t = {
  graph : Callgraph.t;
  units : (string, site list * (string, unit) Hashtbl.t) Hashtbl.t;
  (* one entry per node, duplicate toplevel names included (newest first) *)
  nodes : (string * string, Callgraph.node * site list) Hashtbl.t;
  calls : (string * string, Callgraph.node list) Hashtbl.t;
}

let graph t = t.graph
let active s id = List.exists (List.mem id) s.allow

let rec strip (e : expression) =
  match e.pexp_desc with Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> strip e | _ -> e

let inside c s = List.memq (strip c) s.closures

let rec catch_all_pat p =
  match p.ppat_desc with
  | Ppat_any | Ppat_var _ -> true
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> catch_all_pat p
  | Ppat_or (a, b) -> catch_all_pat a || catch_all_pat b
  | _ -> false

let catch_all_case c = c.pc_guard = None && catch_all_pat c.pc_lhs

(* The standard one-level [Ast_iterator] trick. *)
let iter_child_exprs f e =
  Ast_iterator.default_iterator.expr
    { Ast_iterator.default_iterator with expr = (fun _ c -> f c) }
    e

let unit_sites t (u : Callgraph.unit_info) = fst (Hashtbl.find t.units u.path)
let mutable_fields t (u : Callgraph.unit_info) = snd (Hashtbl.find t.units u.path)

let node_sites t n =
  match List.find_opt (fun (m, _) -> m == n) (Hashtbl.find_all t.nodes (Callgraph.key n)) with
  | Some (_, sites) -> sites
  | None -> []

(* A later toplevel binding of the same name is the one references
   resolve to, so its call list is the name's. *)
let calls t n = Option.value ~default:[] (Hashtbl.find_opt t.calls (Callgraph.key n))

let binders sites =
  let bound = Hashtbl.create 16 in
  List.iter (fun s -> match s.kind with Binder x -> Hashtbl.replace bound x () | _ -> ()) sites;
  bound

(* Shadowing and the call list of one node, once its walk is done. *)
let finish_node t (n : Callgraph.node) sites =
  let bound = binders sites and targets = Hashtbl.create 8 in
  List.iter
    (fun s ->
      match s.kind with
      | Ref ({ path = [ x ]; _ } as id) when Hashtbl.mem bound x -> id.shadowed <- true
      | Ref id ->
          List.iter
            (fun tgt ->
              let k = Callgraph.key tgt in
              if k <> Callgraph.key n then Hashtbl.replace targets k tgt)
            id.targets
      | _ -> ())
    sites;
  Hashtbl.add t.nodes (Callgraph.key n) (n, sites);
  Hashtbl.replace t.calls (Callgraph.key n)
    (List.sort Callgraph.by_key (Hashtbl.fold (fun _ tgt acc -> tgt :: acc) targets []))

(* Walk one unit; [pending] holds the graph's nodes not yet reached, in
   collection order. *)
let walk_unit t (u : Callgraph.unit_info) pending =
  let sites = ref [] and fields = Hashtbl.create 16 in
  let binding = ref None and closures = ref [] and allow = ref [] in
  let uncaught = ref false and chain = ref false and module_level = ref true in
  let add loc kind =
    sites :=
      { loc; kind; binding = !binding; closures = !closures; allow = !allow; uncaught = !uncaught }
      :: !sites
  in
  let resolve (lid : Longident.t Location.loc) =
    let path = Longident.flatten lid.txt in
    let targets = Callgraph.resolve t.graph u path in
    { path; expanded = Callgraph.expand t.graph u path; targets; shadowed = false }
  in
  (* Run [f], then restore the walk's context. *)
  let scoped f =
    let b = !binding and c = !closures and a = !allow in
    let un = !uncaught and ch = !chain and m = !module_level in
    Fun.protect f ~finally:(fun () ->
        binding := b; closures := c; allow := a; uncaught := un; chain := ch; module_level := m)
  in
  (* Run [f] with these [@lint.allow] IDs pushed. *)
  let allowing ids f =
    if ids = [] then f ()
    else
      scoped (fun () ->
          allow := ids :: !allow;
          f ())
  in
  let default = Ast_iterator.default_iterator in
  let rec expr (it : Ast_iterator.iterator) e =
    let ids = Suppress.allow_ids e.pexp_attributes in
    let deferred =
      match e.pexp_desc with
      | Pexp_fun _ | Pexp_function _ | Pexp_lazy _ | Pexp_newtype _ -> true
      | _ -> false
    in
    (* Most expressions change no context: walk those in place. *)
    if ids = [] && not (deferred || !chain) then visit it e
    else
      scoped (fun () ->
          if ids <> [] then allow := ids :: !allow;
          visit it e)
  and visit (it : Ast_iterator.iterator) e =
    let on_chain = !chain in
    (* Only the chain's own forms pass it on to their body. *)
    (match e.pexp_desc with
    | Pexp_fun _ | Pexp_newtype _ | Pexp_constraint _ | Pexp_coerce _ -> ()
    | _ -> chain := false);
    match e.pexp_desc with
    | Pexp_ident lid -> add e.pexp_loc (Ref (resolve lid))
    | Pexp_apply (({ pexp_desc = Pexp_ident lid; _ } as f), args) ->
        let id = resolve lid in
        add e.pexp_loc (Apply (id, args));
        allowing (Suppress.allow_ids f.pexp_attributes) (fun () -> add f.pexp_loc (Ref id));
        List.iter (fun (_, a) -> it.expr it a) args
    | Pexp_apply _ ->
        add e.pexp_loc Computed_apply;
        default.expr it e
    | Pexp_fun (_, arg_default, p, body) ->
        closures := e :: !closures;
        scoped (fun () ->
            chain := false;
            uncaught := false;
            Option.iter (it.expr it) arg_default;
            it.pat it p);
        if not on_chain then uncaught := false;
        it.expr it body
    | Pexp_function _ | Pexp_lazy _ | Pexp_newtype _ ->
        closures := e :: !closures;
        (match e.pexp_desc with
        | (Pexp_function _ | Pexp_newtype _) when on_chain -> ()
        | _ -> uncaught := false);
        default.expr it e
    | Pexp_try (body, cases) when List.exists catch_all_case cases ->
        scoped (fun () ->
            uncaught := false;
            it.expr it body);
        it.cases it cases
    | Pexp_assert a ->
        add e.pexp_loc (Assert a);
        default.expr it e
    | Pexp_setfield (base, lid, value) ->
        add e.pexp_loc (Setfield (base, Longident.last lid.txt, value));
        default.expr it e
    | _ -> default.expr it e
  in
  let pat (it : Ast_iterator.iterator) p =
    (match p.ppat_desc with Ppat_var v -> add p.ppat_loc (Binder v.txt) | _ -> ());
    default.pat it p
  in
  let value_binding (it : Ast_iterator.iterator) vb =
    allowing (Suppress.allow_ids vb.pvb_attributes) (fun () ->
        (match vb.pvb_pat.ppat_desc with
        | Ppat_var v -> add vb.pvb_loc (Let (v.txt, vb.pvb_expr))
        | _ -> ());
        default.value_binding it vb)
  in
  (* A module-level binding is the next pending node: its right-hand side
     is walked as that node, its pattern is not (the node's own name is no
     local binder). *)
  let node_binding (it : Ast_iterator.iterator) vb =
    match !pending with
    | (n : Callgraph.node) :: rest when n.expr == vb.pvb_expr ->
        pending := rest;
        let before = !sites in
        scoped (fun () ->
            binding := Some n;
            allow := Suppress.allow_ids vb.pvb_attributes :: !allow;
            uncaught := true;
            chain := true;
            module_level := false;
            it.expr it vb.pvb_expr);
        let rec since = function l when l == before -> [] | s :: l -> s :: since l | [] -> [] in
        finish_node t n (List.rev (since !sites))
    | _ -> value_binding it vb
  in
  let nested f = scoped (fun () -> module_level := false; f ()) in
  let structure_item (it : Ast_iterator.iterator) item =
    if not !module_level then default.structure_item it item
    else
      match item.pstr_desc with
      | Pstr_value (_, vbs) -> List.iter (node_binding it) vbs
      | Pstr_module mb -> it.module_expr it mb.pmb_expr
      | Pstr_recmodule mbs -> List.iter (fun mb -> it.module_expr it mb.pmb_expr) mbs
      | Pstr_include incl -> it.module_expr it incl.pincl_mod
      | _ -> nested (fun () -> default.structure_item it item)
  in
  let module_expr (it : Ast_iterator.iterator) me =
    match me.pmod_desc with
    | Pmod_structure _ -> default.module_expr it me
    | Pmod_constraint (me, _) when !module_level -> it.module_expr it me
    | _ -> nested (fun () -> default.module_expr it me)
  in
  let type_declaration (it : Ast_iterator.iterator) td =
    (match td.ptype_kind with
    | Ptype_record labels ->
        List.iter
          (fun (ld : label_declaration) ->
            if ld.pld_mutable = Asttypes.Mutable then Hashtbl.replace fields ld.pld_name.txt ())
          labels
    | _ -> ());
    default.type_declaration it td
  in
  let it =
    { default with expr; pat; value_binding; structure_item; module_expr; type_declaration }
  in
  it.structure it u.structure;
  Hashtbl.replace t.units u.path (List.rev !sites, fields)

let build graph =
  let t =
    { graph; units = Hashtbl.create 64; nodes = Hashtbl.create 256; calls = Hashtbl.create 256 }
  in
  let pending = ref (Callgraph.nodes graph) in
  List.iter (fun u -> walk_unit t u pending) (Callgraph.units graph);
  t
