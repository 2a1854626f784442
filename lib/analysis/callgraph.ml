(* Cross-compilation-unit call graph over the untyped parsetree.

   The linter sees [Longident] paths, not resolved values, so this module
   reconstructs just enough of OCaml's name resolution to connect toplevel
   bindings across units:

   - the dune library layout ([lib/index/dune] declaring [(name xia_index)]
     makes [Xia_index.Catalog] resolve to [lib/index/catalog.ml]);
   - toplevel module aliases ([module Catalog = Xia_index.Catalog]), expanded
     to a fixpoint before resolution;
   - toplevel [open]s, tried as qualification prefixes;
   - sibling units: within one library directory, [Catalog.stats] resolves to
     [catalog.ml] next door.

   Resolution is conservative on ambiguity: every plausible target is kept.
   What it cannot see — first-class functions passed as arguments, functor
   applications, shadowing by local modules — is documented in DESIGN.md
   §5f. *)

open Parsetree

type unit_info = {
  path : string;      (* as given to the driver, e.g. "lib/core/benefit.ml" *)
  basename : string;  (* lowercase, extension-stripped: "benefit" *)
  modname : string;   (* the unit's module name: "Benefit" *)
  dir : string;       (* Filename.dirname path *)
  source : string;
  structure : structure;
}

type node = {
  u : unit_info;
  name : string;  (* toplevel binding name; dotted inside nested modules *)
  expr : expression;
  attrs : attributes;
  loc : Location.t;
  allow : string list;  (* [@@lint.allow] IDs of the enclosing module bindings *)
}

let make_unit ~path ~source structure =
  let base = Filename.remove_extension (Filename.basename path) in
  {
    path;
    basename = String.lowercase_ascii base;
    modname = String.capitalize_ascii base;
    dir = Filename.dirname path;
    source;
    structure;
  }

(* ------------------------------------------------- per-unit collection -- *)

let rec var_of_pattern (p : pattern) =
  match p.ppat_desc with
  | Ppat_var v -> Some v.txt
  | Ppat_constraint (p, _) -> var_of_pattern p
  | _ -> None

(* The one module-level pass over a unit.  Its value bindings, recursing
   into nested structures with dotted names ("Cache.find_or_compute",
   "_.x" inside [module _]), each with the [@@lint.allow] IDs of its
   enclosing module bindings.  Bindings with non-variable patterns still
   run at module initialization; they get a synthetic "(init:LINE)" name
   so their sites are judged as a binding's.  And the unit's
   toplevel [module X = Path] aliases and [open Path] statements: aliases
   inside nested modules or expressions are rare in this codebase and
   ignoring them only loses resolutions for code that also hides from
   qualified matching. *)
let collect_bindings u =
  let nodes = ref [] and aliases = Hashtbl.create 8 and opens = ref [] in
  let rec items ~top prefix allow structure =
    List.iter
      (fun (item : structure_item) ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter
              (fun (vb : value_binding) ->
                let name =
                  match var_of_pattern vb.pvb_pat with
                  | Some n -> prefix ^ n
                  | None ->
                      Printf.sprintf "%s(init:%d)" prefix
                        vb.pvb_loc.Location.loc_start.Lexing.pos_lnum
                in
                nodes :=
                  { u; name; expr = vb.pvb_expr; attrs = vb.pvb_attributes; loc = vb.pvb_loc; allow }
                  :: !nodes)
              vbs
        | Pstr_module mb -> module_binding ~top prefix allow mb
        | Pstr_recmodule mbs -> List.iter (module_binding ~top:false prefix allow) mbs
        | Pstr_include incl -> module_expr prefix allow incl.pincl_mod
        | Pstr_open { popen_expr = { pmod_desc = Pmod_ident lid; _ }; _ } when top ->
            opens := Longident.flatten lid.txt :: !opens
        | _ -> ())
      structure
  and module_binding ~top prefix allow mb =
    (match (mb.pmb_name.txt, mb.pmb_expr.pmod_desc) with
    | Some name, Pmod_ident lid when top -> Hashtbl.replace aliases name (Longident.flatten lid.txt)
    | _ -> ());
    module_expr
      (prefix ^ Option.value ~default:"_" mb.pmb_name.txt ^ ".")
      (Suppress.allow_ids mb.pmb_attributes @ allow)
      mb.pmb_expr
  and module_expr prefix allow me =
    match me.pmod_desc with
    | Pmod_structure s -> items ~top:false prefix allow s
    | Pmod_constraint (me, _) -> module_expr prefix allow me
    | _ -> ()
  in
  items ~top:true "" [] u.structure;
  (List.rev !nodes, aliases, List.rev !opens)

(* ------------------------------------------------------- library layout -- *)

(* Extract the wrapped-library module name from a dune file: the token after
   the first [(name] inside a [(library] stanza, capitalized.  Good enough
   for this repository's one-library-per-directory layout; a directory whose
   dune cannot be read simply contributes no library-qualified names. *)
let library_name_of_dune contents =
  let m = String.length contents in
  let rec find needle i =
    if i + String.length needle > m then None
    else if String.sub contents i (String.length needle) = needle then Some i
    else find needle (i + 1)
  in
  let blank c = c = ' ' || c = '\n' || c = '\t' in
  let rec skip i = if i < m && blank contents.[i] then skip (i + 1) else i in
  let rec token i =
    if i < m && not (blank contents.[i] || contents.[i] = ')') then token (i + 1) else i
  in
  match Option.bind (find "(library" 0) (find "(name") with
  | None -> None
  | Some at ->
      let start = skip (at + 5) in
      let stop = token start in
      if stop > start then
        Some (String.capitalize_ascii (String.sub contents start (stop - start)))
      else None

let read_file_opt path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> Some contents
  | exception Sys_error _ -> None

(* ----------------------------------------------------------- the graph -- *)

type t = {
  units : unit_info list;
  node_tbl : (string * string, node) Hashtbl.t;  (* (unit path, name) -> node *)
  node_list : node list;
  by_dir_mod : (string * string, unit_info) Hashtbl.t;  (* (dir, Modname) *)
  by_mod : (string, unit_info list) Hashtbl.t;          (* Modname -> units *)
  lib_dir : (string, string) Hashtbl.t;  (* "Xia_index" -> source dir *)
  no_dune : string list;  (* unit directories without a readable dune file *)
  aliases : (string, (string, string list) Hashtbl.t) Hashtbl.t;  (* unit path *)
  opens : (string, string list list) Hashtbl.t;                   (* unit path *)
  resolved : (string * string list, node list) Hashtbl.t;  (* (unit path, path) *)
}

let key n = (n.u.path, n.name)

let units t = t.units
let nodes t = t.node_list
let without_dune t = t.no_dune

(* Expand leading module-alias components to a fixpoint (bounded: an alias
   chain longer than the alias table is a cycle). *)
let expand t (u : unit_info) path =
  let tbl = Hashtbl.find_opt t.aliases u.path in
  match tbl with
  | None -> path
  | Some aliases ->
      let budget = Hashtbl.length aliases + 1 in
      let rec go budget path =
        if budget <= 0 then path
        else
          match path with
          | head :: rest when Hashtbl.mem aliases head ->
              go (budget - 1) (Hashtbl.find aliases head @ rest)
          | _ -> path
      in
      go budget path

(* Resolve an absolute (alias-free) dotted path seen from [u] to nodes.
   Collects every plausible target; sorts for determinism. *)
let resolve_abs t (u : unit_info) path =
  let node_in unit name =
    match Hashtbl.find_opt t.node_tbl (unit.path, name) with
    | Some n -> [ n ]
    | None -> []
  in
  match path with
  | [] -> []
  | [ n ] -> node_in u n
  | m :: rest -> (
      let dotted = String.concat "." rest in
      let via_library =
        match Hashtbl.find_opt t.lib_dir m with
        | Some dir -> (
            match rest with
            | sub :: fs -> (
                match Hashtbl.find_opt t.by_dir_mod (dir, sub) with
                | Some unit when fs <> [] -> node_in unit (String.concat "." fs)
                | _ -> [])
            | [] -> [])
        | None -> []
      in
      let via_sibling =
        match Hashtbl.find_opt t.by_dir_mod (u.dir, m) with
        | Some unit -> node_in unit dotted
        | None -> []
      in
      let via_nested = node_in u (String.concat "." path) in
      match via_library @ via_sibling @ via_nested with
      | [] ->
          (* Last resort, conservative: any unit anywhere with this module
             name (an [open]ed library we failed to trace, or a test
             project without dune metadata). *)
          List.concat_map
            (fun unit -> node_in unit dotted)
            (Option.value ~default:[] (Hashtbl.find_opt t.by_mod m))
      | found -> found)

(* Memoized per (unit, path): a unit names the same paths over and over. *)
let resolve t (u : unit_info) path =
  match Hashtbl.find_opt t.resolved (u.path, path) with
  | Some nodes -> nodes
  | None ->
      let full = expand t u path in
      let nodes =
        List.concat_map
          (fun o -> resolve_abs t u (expand t u o @ full))
          (Option.value ~default:[] (Hashtbl.find_opt t.opens u.path))
        |> List.append (resolve_abs t u full)
        |> List.fold_left (fun acc n -> if List.memq n acc then acc else n :: acc) []
        |> List.rev
      in
      Hashtbl.replace t.resolved (u.path, path) nodes;
      nodes

let build units_in =
  let units = List.sort (fun a b -> String.compare a.path b.path) units_in in
  let node_tbl = Hashtbl.create 256 in
  let by_dir_mod = Hashtbl.create 64 in
  let by_mod = Hashtbl.create 64 in
  let lib_dir = Hashtbl.create 16 in
  let aliases = Hashtbl.create 64 in
  let opens = Hashtbl.create 64 in
  let unit_nodes = ref [] in
  List.iter
    (fun u ->
      Hashtbl.replace by_dir_mod (u.dir, u.modname) u;
      Hashtbl.replace by_mod u.modname
        (Option.value ~default:[] (Hashtbl.find_opt by_mod u.modname) @ [ u ]);
      let ns, als, ops = collect_bindings u in
      Hashtbl.replace aliases u.path als;
      Hashtbl.replace opens u.path ops;
      List.iter (fun n -> Hashtbl.replace node_tbl (key n) n) ns;
      unit_nodes := ns :: !unit_nodes)
    units;
  let dirs = List.sort_uniq String.compare (List.map (fun u -> u.dir) units) in
  let no_dune =
    List.filter
      (fun dir ->
        match read_file_opt (Filename.concat dir "dune") with
        | None -> true
        | Some contents ->
            Option.iter
              (fun libmod -> Hashtbl.replace lib_dir libmod dir)
              (library_name_of_dune contents);
            false)
      dirs
  in
  let resolved = Hashtbl.create 1024 in
  {
    units; node_tbl; node_list = List.concat (List.rev !unit_nodes); by_dir_mod; by_mod;
    lib_dir; no_dune; aliases; opens; resolved;
  }
