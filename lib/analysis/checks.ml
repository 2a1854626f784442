(* The check catalog.  Every check has a stable ID; [catalog] below is the
   single source of truth for IDs and titles.

   Unit-local checks (this file): D001 folds over one compilation unit's
   module-level bindings, the call graph's nodes, and X001 over each such
   binding's sites; D002, D004, H002 and R003 read every site of the unit
   from the one [Sites] walk, bindings or not; H001 is filesystem-level.
   Whole-program checks: N001 and E001 (below) read the local witnesses
   of each binding's [Effects] summary; D003 and E002 are
   [Callgraph.reach] queries over [Sites.calls] — backwards from each
   mutator site, forwards from the batch roots.

   Identifier references are matched on [Longident] paths after module-alias
   expansion through the graph — full name resolution (functors,
   first-class modules) is out of scope, so a functor-wrapped mutation can
   hide.  It does not occur in this codebase; suppressions cover
   intentional exceptions. *)

open Parsetree

(* Lowercase module basenames whose bindings are D003 entry points. *)
let whatif_modules = [ "benefit"; "optimizer" ]

(* Lowercase module basenames sanctioned to perform IO: the persistence
   boundary E001 carves out. *)
let io_modules = [ "persist" ]

(* Binding names whose transitive call closure E002 polices. *)
let batch_roots = [ "optimize_batch"; "optimize_prepared"; "optimize_costs" ]

let has_suffix = Effects.has_suffix

(* ---------------------------------------------------------------- D001 -- *)

(* The D001 state classifiers ([d001_hits], the allocator/wrapper tables)
   live in [Effects]: the effect pass and this check must agree on what
   counts as raw mutable state.  The unit's mutable field names come from
   the site walk, its module-level bindings from the call graph's nodes. *)

let d001_message what =
  Printf.sprintf
    "module-toplevel mutable state (%s): it outlives one advise session and \
     leaks between evaluators; allocate it per instance (or use Lazy for an \
     immutable table)"
    what

(* Only module-level bindings (nested modules included); allocation
   inside a function body is per-call and fine. *)
let check_d001 mutable_fields nodes =
  List.concat_map
    (fun (n : Callgraph.node) ->
      if Effects.allow "D001" n.attrs || List.mem "D001" n.allow then []
      else
        List.map
          (fun (loc, what) -> Finding.of_location ~id:"D001" ~message:(d001_message what) loc)
          (Effects.d001_hits mutable_fields [] n.expr))
    nodes

(* ------------------------------------------- D002, D004, H002 & R003 -- *)

let d002_message =
  "Sys.time measures process CPU time, not wall-clock; use Xia_obs.Obs.now_s \
   for elapsed time (or suppress for genuinely CPU-bound measurement)"

let d004_message =
  "Unix.gettimeofday in lib/ outside lib/obs/: read the clock through \
   Xia_obs.Obs.now_s so library timing shares one sanctioned time source \
   (or suppress for code that deliberately bypasses the obs layer)"

(* D004 applies to library code only: any path with a [lib] component that is
   not under the obs directory.  bin/, bench/ and test/ may read the clock
   directly — they are leaves, not instrumented library surface. *)
let d004_applies filename =
  let components = String.split_on_char '/' filename in
  List.mem "lib" components && not (List.mem "obs" components)

let h002_message what =
  Printf.sprintf "%s without a (* lint: reason *) note explaining why it cannot happen" what

let r003_message target =
  Printf.sprintf
    "non-atomic read-modify-write: Atomic.set of %s computed from Atomic.get of \
     the same atomic loses concurrent updates; use Atomic.fetch_and_add/incr or \
     a compare_and_set retry loop"
    target

(* R003 matches only the syntactically nested shape [Atomic.set x (...
   Atomic.get x ...)]: a get let-bound earlier (the save/restore idiom) is
   not a hit. *)
let atomic_get_of target (e : expression) =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident lid; _ }, args)
    when has_suffix ~suffix:[ "Atomic"; "get" ] (Longident.flatten lid.txt) ->
      Option.bind (Effects.first_nolabel args) Effects.sym = Some target
  | _ -> false

(* D002, D004, H002 and R003 read every site of the unit, bindings or
   not: a functor body or a toplevel [;;] expression is in scope too. *)
let check_sites ~notes ~d004 sites =
  List.filter_map
    (fun (s : Sites.site) ->
      let fire id message =
        if Sites.active s id then None else Some (Finding.of_location ~id ~message s.loc)
      in
      let h002 what =
        if Suppress.has_lint_note notes ~line:s.loc.Location.loc_start.Lexing.pos_lnum then None
        else fire "H002" (h002_message what)
      in
      match s.kind with
      | Ref { path; _ } when has_suffix ~suffix:[ "Sys"; "time" ] path -> fire "D002" d002_message
      | Ref { path; _ } when d004 && has_suffix ~suffix:[ "Unix"; "gettimeofday" ] path ->
          fire "D004" d004_message
      | Apply ({ path = [ "failwith" ] | [ "Stdlib"; "failwith" ]; _ }, _) -> h002 "failwith"
      | Assert { pexp_desc = Pexp_construct ({ txt = Longident.Lident "false"; _ }, None); _ } ->
          h002 "assert false"
      | Apply ({ path; _ }, (Asttypes.Nolabel, target) :: (Asttypes.Nolabel, value) :: _)
        when has_suffix ~suffix:[ "Atomic"; "set" ] path -> (
          match Effects.sym target with
          | Some x when Effects.exists_expr (atomic_get_of x) value -> fire "R003" (r003_message x)
          | _ -> None)
      | _ -> None)
    sites

(* ---------------------------------------------------------------- X001 -- *)

(* X001 is one syntactic idiom, not a dataflow analysis (DESIGN.md §5k).  A
   save is [let v = Atomic.get x] or [let v = !x]; it is judged only when
   the same binding restores it somewhere ([Atomic.set x v] / [x := v]),
   and then its [let] body must be exactly: assignments of an identifier
   or a constant to [x], then [Fun.protect ~finally:(fun () -> <that
   restore>) body] with [body] an identifier or a literal function.
   Nothing in that shape can raise before the finalizer is in place, and
   the finalizer does nothing but restore.  Any other shape is a finding
   at the save binding, even one that happens to be exception-safe. *)

let x001_message what v =
  Printf.sprintf
    "saved state %s (bound as %s) is not restored on some exceptional path; \
     perform the restore in a Fun.protect ~finally"
    what v

let rec strip e =
  match e.pexp_desc with Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> strip e | _ -> e

(* [f path args] of an application of an identifier. *)
let applied f e =
  match (strip e).pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident lid; _ }, args) -> f (Longident.flatten lid.txt) args
  | _ -> None

(* [Atomic.get x] / [!x]: the target and the read as written. *)
let save path args =
  match Option.bind (Effects.first_nolabel args) Effects.sym with
  | Some x when has_suffix ~suffix:[ "Atomic"; "get" ] path -> Some (x, "Atomic.get " ^ x)
  | Some x when path = [ "!" ] || path = [ "Stdlib"; "!" ] -> Some (x, "!" ^ x)
  | _ -> None

(* [Atomic.set x e] / [x := e]: the target and [e]. *)
let assignment path args =
  if has_suffix ~suffix:[ "Atomic"; "set" ] path || path = [ ":=" ] || path = [ "Stdlib"; ":=" ]
  then
    match Effects.nolabel_args args with
    | [ target; value ] -> Option.map (fun x -> (x, strip value)) (Effects.sym target)
    | _ -> None
  else None

(* An assignment of a variable: the restore of a save bound to it. *)
let restore path args =
  match assignment path args with
  | Some (x, { pexp_desc = Pexp_ident { txt = Longident.Lident v; _ }; _ }) -> Some (x, v)
  | _ -> None

(* Is the [let] body of the save of [x] bound as [v] the guarded shape? *)
let rec guarded x v e =
  match e.pexp_desc with
  | Pexp_sequence (a, rest) -> (
      match applied assignment a with
      | Some (y, { pexp_desc = Pexp_ident _ | Pexp_constant _ | Pexp_construct (_, None); _ }) ->
          String.equal y x && guarded x v rest
      | _ -> false)
  | Pexp_apply ({ pexp_desc = Pexp_ident lid; _ }, ([ _; _ ] as args))
    when has_suffix ~suffix:[ "Fun"; "protect" ] (Longident.flatten lid.txt) -> (
      match
        (List.assoc_opt (Asttypes.Labelled "finally") args, List.assoc_opt Asttypes.Nolabel args)
      with
      | Some finally, Some body -> (
          (match (strip finally).pexp_desc with
          | Pexp_fun (Asttypes.Nolabel, None, _, r) -> applied restore r = Some (x, v)
          | _ -> false)
          &&
          match (strip body).pexp_desc with
          | Pexp_ident _ | Pexp_fun _ | Pexp_function _ -> true
          | _ -> false)
      | _ -> false)
  | _ -> false

let check_x001 sites nodes =
  List.concat_map
    (fun n ->
      let own = Sites.node_sites sites n in
      let restores =
        List.filter_map
          (fun (s : Sites.site) ->
            match s.kind with Apply ({ path; _ }, args) -> restore path args | _ -> None)
          own
      in
      List.filter_map
        (fun (s : Sites.site) ->
          match s.kind with
          | Let (p, rhs, body) -> (
              match (Callgraph.var_of_pattern p, applied save rhs) with
              | Some v, Some (x, what)
                when List.mem (x, v) restores
                     && (not (Option.fold ~none:false ~some:(guarded x v) body))
                     && not (Sites.active s "X001" || Effects.allow "X001" rhs.pexp_attributes) ->
                  Some (Finding.of_location ~id:"X001" ~message:(x001_message what v) s.loc)
              | _ -> None)
          | _ -> None)
        own)
    nodes

(* ---------------------------------------------------------------- D003 -- *)

(* Whole-program D003: a catalog/store mutator site — in any unit — fires
   when some binding of a what-if module can reach it through the
   cross-unit call graph: a reverse [Callgraph.reach] from the site's host
   over caller edges (the inverted [Sites.calls]), with no cut — a mutex
   does not make a what-if mutation acceptable.  [Effects] matches mutator
   paths after alias expansion ([Catalog.runstats],
   [Xia_index.Catalog.runstats], or any local alias of either), so the
   check polices the catalog/store API boundary; mutation smuggled through
   an unqualified internal helper of the mutated module itself is out of
   reach (DESIGN.md §5f).  The message lists every binding the reverse
   walk enters, the host included, qualified with the unit module name
   when it lives in another unit. *)
let check_d003_program sites eff =
  let is_whatif (r : Callgraph.node) = List.mem r.u.basename whatif_modules in
  let callers = Hashtbl.create 256 in
  let callers_of c = Option.value ~default:[] (Hashtbl.find_opt callers (Callgraph.key c)) in
  let nodes = Callgraph.nodes (Sites.graph sites) in
  List.iter
    (fun n ->
      List.iter
        (fun c -> Hashtbl.replace callers (Callgraph.key c) (n :: callers_of c))
        (Sites.calls sites n))
    nodes;
  List.concat_map
    (fun (n : Callgraph.node) ->
      match (Effects.summary eff n).mutations with
      | [] -> []
      | witnesses ->
          let hosts =
            List.map fst
              (Callgraph.reach ~succ:callers_of ~cut:(fun _ -> false) n)
          in
          if not (List.exists is_whatif hosts) then []
          else
            let entries =
              List.map
                (fun (r : Callgraph.node) ->
                  if String.equal r.u.path n.u.path then r.name
                  else r.u.modname ^ "." ^ r.name)
                hosts
              |> List.sort String.compare
            in
            List.map
              (fun (s : Effects.witness) ->
                let message =
                  Printf.sprintf
                    "catalog/store mutation %s on a what-if evaluation path (in %s, \
                     reachable from: %s); what-if evaluation must not mutate shared \
                     state — pass ?virtual_config instead"
                    s.s_what n.name (String.concat ", " entries)
                in
                Finding.of_location ~id:"D003" ~message s.s_loc)
              witnesses)
    nodes

(* --------------------------------------------------------- N001 & E-series -- *)

let in_dir d path = List.mem d (String.split_on_char '/' path)

(* The unsuppressed local witnesses of every node [applies] to, as
   findings. *)
let local_findings sites ~id ~message ~applies witnesses =
  List.concat_map
    (fun (n : Callgraph.node) ->
      if not (applies n) then []
      else
        List.filter_map
          (fun (s : Effects.witness) ->
            if s.s_suppressed then None
            else Some (Finding.of_location ~id ~message:(message s.s_what) s.s_loc))
          (witnesses n))
    (Callgraph.nodes (Sites.graph sites))

let n001_message what =
  Printf.sprintf
    "%s builds a list in hash iteration order with no canonicalizing sort in \
     the same binding; the unspecified order escapes into the result — sort \
     it (List.sort) before it leaves the function"
    what

(* N001: an order-dependent fold in library code whose literal closure
   builds a list and whose binding never sorts — the iteration order leaks
   into a value the advise path may return or cache.  Library-scoped: bin/
   and bench/ print for humans and may keep hash order. *)
let check_n001_program sites eff =
  local_findings sites ~id:"N001" ~message:n001_message
    ~applies:(fun n -> in_dir "lib" n.u.path)
    (fun n -> (Effects.summary eff n).order)

let e001_message what =
  Printf.sprintf
    "IO effect (%s) in library code outside lib/obs and the persistence \
     boundary: route output through Xia_obs.Obs and file traffic through the \
     sanctioned IO modules, or lift the channel to the caller"
    what

(* E001: IO in lib/ outside the sanctioned surfaces.  lib/obs owns logging,
   lib/analysis is the linter itself (it reads the source tree it checks),
   and [io_modules] names the persistence boundary. *)
let check_e001_program sites eff =
  local_findings sites ~id:"E001" ~message:e001_message
    ~applies:(fun n ->
      in_dir "lib" n.u.path
      && (not (in_dir "obs" n.u.path))
      && (not (in_dir "analysis" n.u.path))
      && not (List.mem n.u.basename io_modules))
    (fun n -> (Effects.summary eff n).io)

let e002_message what root via =
  Printf.sprintf
    "shared-state write (%s) reachable from %s's virtual-config path%s; \
     what-if evaluation beyond the sanctioned warm_stats/prepare sites \
     must stay effect-free — thread state through arguments or move the \
     write outside the batch"
    what root
    (match via with [] -> "" | _ -> " via " ^ String.concat " -> " via)

(* E002: a [Callgraph.reach] from every [batch_roots] binding (the
   virtual-config what-if path) over the resolved calls, flagging raw
   shared-state writes with the trail that led to their host (host
   excluded).  Cuts: [warm_stats] and the optimizer's [prepare] (which
   binds a statement to the statistics warmed before it) are the
   sanctioned binding points, lib/obs is instrumentation, and the
   [interner] module's tables hand out identities and memoize pure
   functions, so a write there never changes a result.  The root itself
   is never cut.  Atomic writes never produce witnesses in the first
   place. *)
let check_e002_program sites eff =
  let sanctioned (m : Callgraph.node) =
    String.equal m.name "warm_stats"
    || (String.equal m.name "prepare" && String.equal m.u.basename "optimizer")
    || in_dir "obs" m.u.path
    || String.equal m.u.basename "interner"
  in
  let emitted = Hashtbl.create 16 in
  let findings = ref [] in
  let emit root via (s : Effects.witness) =
    let p = s.s_loc.Location.loc_start in
    let dedup = (p.Lexing.pos_fname, p.Lexing.pos_lnum, p.Lexing.pos_cnum) in
    if (not s.s_suppressed) && not (Hashtbl.mem emitted dedup) then begin
      Hashtbl.replace emitted dedup ();
      findings :=
        Finding.of_location ~id:"E002" ~message:(e002_message s.s_what root via) s.s_loc
        :: !findings
    end
  in
  let roots =
    List.filter
      (fun (n : Callgraph.node) -> List.mem n.name batch_roots)
      (Callgraph.nodes (Sites.graph sites))
  in
  List.iter
    (fun (root : Callgraph.node) ->
      let cut m = Callgraph.key m <> Callgraph.key root && sanctioned m in
      List.iter
        (fun ((m : Callgraph.node), trail) ->
          let via = List.map (fun (v : Callgraph.node) -> v.name) trail in
          List.iter (emit root.name via) (Effects.summary eff m).writes)
        (Callgraph.reach ~succ:(Sites.calls sites) ~cut root))
    roots;
  List.rev !findings

(* ---------------------------------------------------------------- H001 -- *)

let module_of_path path = String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* Executable directories: their modules are program entry points with no
   importable surface, so demanding an .mli is noise.  Matched on any path
   component, so `bench/main.ml` and `foo/bin/tool.ml` are both exempt. *)
let h001_exempt_dirs = [ "bin"; "bench" ]

let h001_exempt path =
  List.exists (fun d -> List.mem d h001_exempt_dirs) (String.split_on_char '/' path)

let missing_mli ~mls ~mlis =
  let have = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace have (Filename.remove_extension p) ()) mlis;
  List.filter_map
    (fun ml ->
      if h001_exempt ml || Hashtbl.mem have (Filename.remove_extension ml) then None
      else
        Some
          (Finding.make ~file:ml ~line:1 ~col:0 ~id:"H001"
             ~message:
               (Printf.sprintf
                  "module %s has no interface: add %si to state the public \
                   surface" (module_of_path ml) ml)))
    mls

(* ------------------------------------------------------------- driver -- *)

(* Unit-local checks for one compilation unit.  The raw source text
   carries the lint-note comments; H001 is filesystem-level and lives in
   [missing_mli]; the rest of the catalog is whole-program. *)
let check_unit sites (u : Callgraph.unit_info) =
  let notes = Suppress.lint_note_lines u.source in
  let nodes =
    List.filter (fun (n : Callgraph.node) -> n.u == u) (Callgraph.nodes (Sites.graph sites))
  in
  List.sort Finding.compare
    (check_d001 (Sites.mutable_fields sites u) nodes
    @ check_x001 sites nodes
    @ check_sites ~notes ~d004:(d004_applies u.path) (Sites.unit_sites sites u))

(* ------------------------------------------------------ check catalog -- *)

type check_info = { id : string; title : string }

let catalog =
  [
    { id = "D001"; title = "module-toplevel mutable state" };
    { id = "D002"; title = "Sys.time used for timing" };
    { id = "D003"; title = "catalog/store mutation on a what-if path" };
    { id = "D004"; title = "wall-clock read outside lib/obs" };
    { id = "E001"; title = "IO effect in library code" };
    { id = "E002"; title = "shared-state write on the virtual-config path" };
    { id = "H001"; title = "module without an .mli interface" };
    { id = "H002"; title = "failwith/assert false without a lint note" };
    { id = "N001"; title = "hash iteration order escapes into a result" };
    { id = "R003"; title = "non-atomic read-modify-write on an Atomic.t" };
    { id = "X001"; title = "save/restore skipped on an exceptional path" };
  ]
