(* The site table: one parsetree walk per compilation unit.

   The walk is a single [Ast_iterator] over the whole structure.  It
   mirrors [Callgraph]'s binding collection at the module level (toplevel
   value bindings, recursing into nested structures), so each
   node's right-hand side is walked as that node; everything else — a
   toplevel [;;] expression, a functor body, a class — is walked with no
   binding.  Along the way it keeps the one context every site records:
   the [@lint.allow] stack, the attributes of every enclosing expression
   and value binding, nested [let]s included.

   Each identifier is resolved here.  When a node's walk ends, a
   reference whose single-component name some pattern of the node binds
   is marked shadowed (over-approximate on purpose: a sibling-branch
   binder only ever silences a finding). *)

open Parsetree

type ident = {
  path : string list;
  targets : Callgraph.node list;
  mutable shadowed : bool;
}

type kind =
  | Ref of ident
  | Apply of ident * (Asttypes.arg_label * expression) list
  | Binder of string
  | Let of pattern * expression * expression option
  | Assert of expression

type site = { loc : Location.t; kind : kind; allow : string list list }

type t = {
  graph : Callgraph.t;
  units : (string, site list * (string, unit) Hashtbl.t) Hashtbl.t;
  (* one entry per node, duplicate toplevel names included (newest first):
     the node and its sites *)
  nodes : (string * string, Callgraph.node * site list) Hashtbl.t;
}

let graph t = t.graph
let active s id = List.exists (List.mem id) s.allow

(* The standard one-level [Ast_iterator] trick. *)
let iter_child_exprs f e =
  Ast_iterator.default_iterator.expr
    { Ast_iterator.default_iterator with expr = (fun _ c -> f c) }
    e

let unit_sites t (u : Callgraph.unit_info) = fst (Hashtbl.find t.units u.path)
let mutable_fields t (u : Callgraph.unit_info) = snd (Hashtbl.find t.units u.path)

(* A binding's own entry, even when a later toplevel binding of the same
   name shadows it. *)
let node_sites t n =
  match List.find_opt (fun (m, _) -> m == n) (Hashtbl.find_all t.nodes (Callgraph.key n)) with
  | Some (_, sites) -> sites
  | None -> []

let binders sites =
  let bound = Hashtbl.create 16 in
  List.iter (fun s -> match s.kind with Binder x -> Hashtbl.replace bound x () | _ -> ()) sites;
  bound

(* Shadowing in one node, once its walk is done. *)
let finish_node t (n : Callgraph.node) sites =
  let bound = binders sites in
  List.iter
    (fun s ->
      match s.kind with
      | Ref ({ path = [ x ]; _ } as id) when Hashtbl.mem bound x -> id.shadowed <- true
      | _ -> ())
    sites;
  Hashtbl.add t.nodes (Callgraph.key n) (n, sites)

(* Walk one unit; [pending] holds the graph's nodes not yet reached, in
   collection order. *)
let walk_unit t (u : Callgraph.unit_info) pending =
  let sites = ref [] and fields = Hashtbl.create 16 in
  let allow = ref [] in
  let add loc kind = sites := { loc; kind; allow = !allow } :: !sites in
  let resolve (lid : Longident.t Location.loc) =
    let path = Longident.flatten lid.txt in
    let targets = Callgraph.resolve t.graph u path in
    { path; targets; shadowed = false }
  in
  (* Run [f], then restore the [@lint.allow] stack. *)
  let scoped f =
    let saved = !allow in
    Fun.protect ~finally:(fun () -> allow := saved) f
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
  (* A value binding, with the body of its [let ... in] when it has one. *)
  let bind body (it : Ast_iterator.iterator) vb =
    allowing (Suppress.allow_ids vb.pvb_attributes) (fun () ->
        add vb.pvb_loc (Let (vb.pvb_pat, vb.pvb_expr, body));
        default.value_binding it vb)
  in
  let visit (it : Ast_iterator.iterator) e =
    match e.pexp_desc with
    | Pexp_ident lid -> add e.pexp_loc (Ref (resolve lid))
    | Pexp_apply (({ pexp_desc = Pexp_ident lid; _ } as f), args) ->
        let id = resolve lid in
        add e.pexp_loc (Apply (id, args));
        allowing (Suppress.allow_ids f.pexp_attributes) (fun () -> add f.pexp_loc (Ref id));
        List.iter (fun (_, a) -> it.expr it a) args
    | Pexp_let (_, vbs, body) ->
        List.iter (bind (Some body) it) vbs;
        it.expr it body
    | Pexp_assert a ->
        add e.pexp_loc (Assert a);
        default.expr it e
    | _ -> default.expr it e
  in
  (* Most expressions carry no attribute: walk those without a closure. *)
  let expr (it : Ast_iterator.iterator) e =
    match Suppress.allow_ids e.pexp_attributes with
    | [] -> visit it e
    | ids -> allowing ids (fun () -> visit it e)
  in
  let pat (it : Ast_iterator.iterator) p =
    (match p.ppat_desc with Ppat_var v -> add p.ppat_loc (Binder v.txt) | _ -> ());
    default.pat it p
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
  let it = { default with expr; pat; value_binding = bind None; type_declaration } in
  (* The module level, walked as [Callgraph] collects it: a module-level
     binding is the next pending node, its right-hand side walked as that
     node and its pattern not (the node's own name is no local binder).
     Any other item, and any module expression but a structure or a
     constraint, is walked by [it]. *)
  let node_binding vb =
    match !pending with
    | (n : Callgraph.node) :: rest when n.expr == vb.pvb_expr ->
        pending := rest;
        let before = !sites in
        allowing (Suppress.allow_ids vb.pvb_attributes) (fun () -> it.expr it vb.pvb_expr);
        let rec since = function l when l == before -> [] | s :: l -> s :: since l | [] -> [] in
        finish_node t n (List.rev (since !sites))
    | _ -> bind None it vb
  in
  let rec structure_item item =
    match item.pstr_desc with
    | Pstr_value (_, vbs) -> List.iter node_binding vbs
    | Pstr_module mb -> module_expr mb.pmb_expr
    | Pstr_recmodule mbs -> List.iter (fun mb -> module_expr mb.pmb_expr) mbs
    | Pstr_include incl -> module_expr incl.pincl_mod
    | _ -> it.structure_item it item
  and module_expr me =
    match me.pmod_desc with
    | Pmod_structure items -> List.iter structure_item items
    | Pmod_constraint (me, _) -> module_expr me
    | _ -> it.module_expr it me
  in
  List.iter structure_item u.structure;
  Hashtbl.replace t.units u.path (List.rev !sites, fields)

let build graph =
  let t =
    { graph; units = Hashtbl.create 64; nodes = Hashtbl.create 256 }
  in
  let pending = ref (Callgraph.nodes graph) in
  List.iter (fun u -> walk_unit t u pending) (Callgraph.units graph);
  t
