(* The site table: one parsetree walk per compilation unit.

   The walk is a single [Ast_iterator] over the whole structure, driven
   at the module level by its own pass: each value binding of the unit's
   structure, recursing into nested structures with a dotted prefix
   ("Cache.find_or_compute", "_.x" inside [module _]), becomes a binding
   as the pass reaches it, its right-hand side walked as that binding's
   own sites.  Everything else — a toplevel [;;] expression, a functor
   body, a class — is walked with no binding.  Along the way it keeps the
   one context every site records: the [@lint.allow] stack, the
   attributes of every enclosing expression and value binding, nested
   [let]s included. *)

open Parsetree

type unit_info = { path : string; source : string; structure : structure }

type kind =
  | Ref of string list
  | Apply of string list * (Asttypes.arg_label * expression) list
  | Binder of string
  | Let of pattern * expression * expression option
  | Assert of expression

type site = { loc : Location.t; kind : kind; allow : string list list }

type binding = {
  name : string;
  expr : expression;
  attrs : attributes;
  loc : Location.t;
  enclosing : string list;
  own : site list;
}

type t = { sites : site list; bindings : binding list; mutable_fields : (string, unit) Hashtbl.t }

let active (s : site) id = List.exists (List.mem id) s.allow

(* The standard one-level [Ast_iterator] trick. *)
let iter_child_exprs f e =
  Ast_iterator.default_iterator.expr
    { Ast_iterator.default_iterator with expr = (fun _ c -> f c) }
    e

let rec var_of_pattern (p : pattern) =
  match p.ppat_desc with
  | Ppat_var v -> Some v.txt
  | Ppat_constraint (p, _) -> var_of_pattern p
  | _ -> None

let walk u =
  let sites = ref [] and bindings = ref [] and fields = Hashtbl.create 16 in
  let allow = ref [] in
  let add loc kind = sites := { loc; kind; allow = !allow } :: !sites in
  let path (lid : Longident.t Location.loc) = Longident.flatten lid.txt in
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
    | Pexp_ident lid -> add e.pexp_loc (Ref (path lid))
    | Pexp_apply (({ pexp_desc = Pexp_ident lid; _ } as f), args) ->
        let p = path lid in
        add e.pexp_loc (Apply (p, args));
        allowing (Suppress.allow_ids f.pexp_attributes) (fun () -> add f.pexp_loc (Ref p));
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
  (* The module level: a value binding becomes a binding named under
     [prefix], its right-hand side walked as its own sites and its pattern
     not (the binding's own name is no local binder).  Bindings with
     non-variable patterns still run at module initialization; they get a
     synthetic "(init:LINE)" name so their sites are judged as a
     binding's.  Any other item, and any module expression but a structure
     or a constraint, is walked by [it]. *)
  let module_value prefix enclosing vb =
    let name =
      match var_of_pattern vb.pvb_pat with
      | Some n -> prefix ^ n
      | None -> Printf.sprintf "%s(init:%d)" prefix vb.pvb_loc.loc_start.pos_lnum
    in
    let before = !sites in
    allowing (Suppress.allow_ids vb.pvb_attributes) (fun () -> it.expr it vb.pvb_expr);
    let rec since = function l when l == before -> [] | s :: l -> s :: since l | [] -> [] in
    let own = List.rev (since !sites) in
    bindings :=
      { name; expr = vb.pvb_expr; attrs = vb.pvb_attributes; loc = vb.pvb_loc; enclosing; own }
      :: !bindings
  in
  let rec structure_item prefix enclosing item =
    match item.pstr_desc with
    | Pstr_value (_, vbs) -> List.iter (module_value prefix enclosing) vbs
    | Pstr_module mb -> module_binding prefix enclosing mb
    | Pstr_recmodule mbs -> List.iter (module_binding prefix enclosing) mbs
    | Pstr_include incl -> module_expr prefix enclosing incl.pincl_mod
    | _ -> it.structure_item it item
  and module_binding prefix enclosing mb =
    module_expr
      (prefix ^ Option.value ~default:"_" mb.pmb_name.txt ^ ".")
      (Suppress.allow_ids mb.pmb_attributes @ enclosing)
      mb.pmb_expr
  and module_expr prefix enclosing me =
    match me.pmod_desc with
    | Pmod_structure items -> List.iter (structure_item prefix enclosing) items
    | Pmod_constraint (me, _) -> module_expr prefix enclosing me
    | _ -> it.module_expr it me
  in
  List.iter (structure_item "" []) u.structure;
  { sites = List.rev !sites; bindings = List.rev !bindings; mutable_fields = fields }
