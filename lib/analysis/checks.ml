(* The check catalog.  Every check has a stable ID; [catalog] below is the
   single source of truth for IDs and titles.  Every check reads the sites
   of the one [Sites] walk and classifies them itself: the tables that say
   what a site *is* (allocators, IO sinks, mutators, order sources) sit
   next to the check that uses them.

   Unit-local checks ([check_unit]): D001 folds over one compilation
   unit's module-level bindings, the call graph's nodes; X001, E001 and
   N001 read each such binding's own sites; D002, D004, H002 and R003
   read every site of the unit, bindings or not; H001 is
   filesystem-level.  The whole-program check ([check_program]), E002, is
   a [Callgraph.reach] query over [Sites.calls] forwards from the batch
   roots that classifies the own sites of every binding it enters.  That
   what-if evaluation never writes the catalog is the compiler's to check:
   every what-if interface takes a catalog without its write capability
   ([Catalog.read_only]).

   Identifier references are matched on [Longident] paths after module-alias
   expansion through the graph — full name resolution (functors,
   first-class modules) is out of scope, so a functor-wrapped write can
   hide.  It does not occur in this codebase; suppressions cover
   intentional exceptions. *)

open Parsetree

(* Lowercase module basenames sanctioned to perform IO: the persistence
   boundary E001 carves out. *)
let io_modules = [ "persist" ]

(* Binding names whose transitive call closure E002 polices. *)
let batch_roots = [ "optimize_batch"; "optimize_prepared"; "optimize_costs" ]

(* ------------------------------------------------ syntactic helpers -- *)

let allow id attrs = List.mem id (Suppress.allow_ids attrs)

(* Is [suffix] a component suffix of [path] ([["Atomic"; "get"]] of
   [["Stdlib"; "Atomic"; "get"]])? *)
let has_suffix ~suffix path =
  let rec strip k l = if k <= 0 then Some l else match l with [] -> None | _ :: t -> strip (k - 1) t in
  match strip (List.length path - List.length suffix) path with
  | Some tail -> List.equal String.equal tail suffix
  | None -> false

(* The first of [suffixes] that [path] ends with, as a dotted name. *)
let suffix_name suffixes path =
  Option.map (String.concat ".") (List.find_opt (fun suffix -> has_suffix ~suffix path) suffixes)

(* [Module.fn] when the path ends in a member of [table]: (module, fns). *)
let member_of table path =
  match List.rev path with
  | f :: m :: _ ->
      List.find_map
        (fun (m', fns) -> if String.equal m m' && List.mem f fns then Some (m ^ "." ^ f) else None)
        table
  | _ -> None

let nolabel_args args =
  List.filter_map
    (fun (label, (a : expression)) ->
      match label with Asttypes.Nolabel -> Some a | _ -> None)
    args

(* The subject of a call: its first unlabeled argument ([x := v]'s
   target, [Atomic.get x]'s atomic). *)
let first_nolabel args = match nolabel_args args with a :: _ -> Some a | [] -> None

(* Symbolic identity of an atomic/target expression: dotted ident or
   field path ("enabled", "t.memo"); [None] when the expression has no
   stable name (array cells, call results). *)
let rec sym (e : expression) =
  match e.pexp_desc with
  | Pexp_ident lid -> Some (String.concat "." (Longident.flatten lid.txt))
  | Pexp_field (b, lid) -> (
      match sym b with
      | Some s -> (
          match List.rev (Longident.flatten lid.txt) with
          | f :: _ -> Some (s ^ "." ^ f)
          | [] -> None)
      | None -> None)
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_open (_, e) -> sym e
  | _ -> None

(* Does [e] or some subexpression satisfy [p]?  Stops descending at the
   first hit. *)
let rec exists_expr p (e : expression) =
  p e
  ||
  let found = ref false in
  Sites.iter_child_exprs (fun c -> if not !found then found := exists_expr p c) e;
  !found

let in_dir d path = List.mem d (String.split_on_char '/' path)

(* ---------------------------------------------------------------- D001 -- *)

(* A binding whose right-hand side evaluates to one of these at module
   initialization is shared mutable state. *)
let flagged_allocators =
  [
    [ "Hashtbl"; "create" ]; [ "Buffer"; "create" ]; [ "Queue"; "create" ];
    [ "Stack"; "create" ]; [ "Weak"; "create" ]; [ "Dynarray"; "create" ];
    [ "Bytes"; "create" ]; [ "Bytes"; "make" ]; [ "Array"; "make" ];
    [ "Array"; "create_float" ]; [ "Array"; "init" ]; [ "Array"; "make_matrix" ];
  ]

(* Does this expression evaluate to a function?  Walks through the wrappers
   a closure definition commonly sits under. *)
let rec returns_closure (e : expression) =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> true
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_open (_, e)
  | Pexp_letmodule (_, _, e) | Pexp_letexception (_, e) | Pexp_let (_, _, e)
  | Pexp_sequence (_, e) ->
      returns_closure e
  | Pexp_ifthenelse (_, t, Some f) -> returns_closure t || returns_closure f
  | _ -> false

(* Classify an expression as raw shared mutable state: every (location,
   allocator) pair found descending through the wrappers that merely
   surround an initializer and through data constructors whose payload
   would still be reachable shared state.  E002 uses the same classifier
   for a binding's raw mutable locals. *)
let rec d001_hits mutable_fields acc (e : expression) =
  if allow "D001" e.pexp_attributes then acc
  else
    match e.pexp_desc with
    (* Deferred allocation: a fresh value per call, not shared state. *)
    | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ | Pexp_lazy _ -> acc
    | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_open (_, e)
    | Pexp_letmodule (_, _, e) | Pexp_letexception (_, e) ->
        d001_hits mutable_fields acc e
    | Pexp_let (_, vbs, body) ->
        (* A memoizing closure — [let memo = ref None in fun () -> ...] — is
           toplevel shared state with extra steps: the closure outlives the
           binding and every caller shares the captured allocation.  Scan the
           let-in bindings whenever the whole expression evaluates to a
           function; a let-in whose body is a plain value ran once at init
           and its locals are unreachable afterwards. *)
        let acc =
          if returns_closure body then
            List.fold_left
              (fun acc (vb : value_binding) ->
                if allow "D001" vb.pvb_attributes then acc
                else d001_hits mutable_fields acc vb.pvb_expr)
              acc vbs
          else acc
        in
        d001_hits mutable_fields acc body
    | Pexp_sequence (_, e2) -> d001_hits mutable_fields acc e2
    | Pexp_ifthenelse (_, t, f) ->
        let acc = d001_hits mutable_fields acc t in
        Option.fold ~none:acc ~some:(d001_hits mutable_fields acc) f
    | Pexp_tuple es -> List.fold_left (d001_hits mutable_fields) acc es
    | Pexp_construct (_, Some e) | Pexp_variant (_, Some e) ->
        d001_hits mutable_fields acc e
    | Pexp_apply ({ pexp_desc = Pexp_ident lid; _ }, _) ->
        (* A call's arguments are not descended: only its own result can be
           the shared allocation. *)
        let path = Longident.flatten lid.txt in
        if List.equal String.equal path [ "ref" ]
                || List.equal String.equal path [ "Stdlib"; "ref" ]
        then (e.pexp_loc, "ref") :: acc
        else (
          match suffix_name flagged_allocators path with
          | Some name -> (e.pexp_loc, name) :: acc
          | None -> acc)
    | Pexp_record (fields, base) ->
        let mutable_labels =
          List.filter_map
            (fun ((lid : Longident.t Location.loc), _) ->
              match List.rev (Longident.flatten lid.txt) with
              | last :: _ when Hashtbl.mem mutable_fields last -> Some last
              | _ -> None)
            fields
        in
        if mutable_labels <> [] then
          ( e.pexp_loc,
            Printf.sprintf "record literal with mutable field %s"
              (String.concat ", " mutable_labels) )
          :: acc
        else
          let acc =
            List.fold_left (fun acc (_, fe) -> d001_hits mutable_fields acc fe) acc fields
          in
          Option.fold ~none:acc ~some:(d001_hits mutable_fields acc) base
    | Pexp_array _ -> (e.pexp_loc, "array literal") :: acc
    | _ -> acc

let d001_message what =
  Printf.sprintf
    "module-toplevel mutable state (%s): it outlives one advise session and \
     leaks between evaluators; allocate it per instance (or use Lazy for an \
     immutable table)"
    what

(* Only module-level bindings (nested modules included); allocation
   inside a function body is per-call and fine.  The unit's mutable field
   names come from the site walk, its module-level bindings from the call
   graph's nodes. *)
let check_d001 mutable_fields nodes =
  List.concat_map
    (fun (n : Callgraph.node) ->
      if allow "D001" n.attrs || List.mem "D001" n.allow then []
      else
        List.map
          (fun (loc, what) -> Finding.of_location ~id:"D001" ~message:(d001_message what) loc)
          (d001_hits mutable_fields [] n.expr))
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
let d004_applies path = in_dir "lib" path && not (in_dir "obs" path)

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
      Option.bind (first_nolabel args) sym = Some target
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
          match sym target with
          | Some x when exists_expr (atomic_get_of x) value -> fire "R003" (r003_message x)
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
  match Option.bind (first_nolabel args) sym with
  | Some x when has_suffix ~suffix:[ "Atomic"; "get" ] path -> Some (x, "Atomic.get " ^ x)
  | Some x when path = [ "!" ] || path = [ "Stdlib"; "!" ] -> Some (x, "!" ^ x)
  | _ -> None

(* [Atomic.set x e] / [x := e]: the target and [e]. *)
let assignment path args =
  if has_suffix ~suffix:[ "Atomic"; "set" ] path || path = [ ":=" ] || path = [ "Stdlib"; ":=" ]
  then
    match nolabel_args args with
    | [ target; value ] -> Option.map (fun x -> (x, strip value)) (sym target)
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

(* X001 over one binding's own sites. *)
let check_x001 own =
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
                 && not (Sites.active s "X001" || allow "X001" rhs.pexp_attributes) ->
              Some (Finding.of_location ~id:"X001" ~message:(x001_message what v) s.loc)
          | _ -> None)
      | _ -> None)
    own

(* --------------------------------------------------------- E001 & N001 -- *)

(* Unambiguous IO sinks.  [sprintf]/[asprintf] build strings and are pure;
   [fprintf] is excluded because a pp function cannot know whether its
   formatter argument reaches a real channel. *)
let io_single_idents =
  [
    "print_string"; "print_endline"; "print_newline"; "print_char"; "print_int";
    "print_float"; "print_bytes"; "prerr_string"; "prerr_endline"; "prerr_newline";
    "prerr_char"; "prerr_int"; "prerr_float"; "prerr_bytes"; "read_line"; "read_int";
    "read_int_opt"; "read_float"; "read_float_opt"; "output_string"; "output_bytes";
    "output_char"; "output_byte"; "output_value"; "output_binary_int"; "open_in";
    "open_in_bin"; "open_in_gen"; "open_out"; "open_out_bin"; "open_out_gen";
    "close_in"; "close_in_noerr"; "close_out"; "close_out_noerr"; "input_line";
    "input_char"; "input_byte"; "input_value"; "really_input_string"; "input";
    "in_channel_length"; "out_channel_length"; "flush"; "flush_all";
    "stdin"; "stdout"; "stderr";
  ]

let io_suffixes =
  [
    [ "Printf"; "printf" ]; [ "Printf"; "eprintf" ];
    [ "Format"; "printf" ]; [ "Format"; "eprintf" ];
    [ "Format"; "std_formatter" ]; [ "Format"; "err_formatter" ];
    [ "Sys"; "command" ]; [ "Sys"; "remove" ]; [ "Sys"; "rename" ];
    [ "Sys"; "mkdir" ]; [ "Sys"; "rmdir" ]; [ "Sys"; "readdir" ];
    [ "Sys"; "chdir" ]; [ "Sys"; "getcwd" ]; [ "Sys"; "is_directory" ];
    [ "Sys"; "file_exists" ];
    [ "Unix"; "openfile" ]; [ "Unix"; "read" ]; [ "Unix"; "write" ];
    [ "Unix"; "close" ]; [ "Unix"; "system" ]; [ "Unix"; "mkdir" ];
    [ "Unix"; "unlink" ]; [ "Unix"; "rename" ]; [ "Unix"; "stat" ];
  ]

let io_of_path path =
  match path with
  | [ x ] | [ "Stdlib"; x ] when List.mem x io_single_idents -> Some x
  | _ -> (
      match (suffix_name io_suffixes path, List.rev path) with
      | Some name, _ -> Some name
      | None, f :: m :: _ when String.equal m "In_channel" || String.equal m "Out_channel" ->
          Some (m ^ "." ^ f)
      | None, _ -> None)

let e001_message what =
  Printf.sprintf
    "IO effect (%s) in library code outside lib/obs and the persistence \
     boundary: route output through Xia_obs.Obs and file traffic through the \
     sanctioned IO modules, or lift the channel to the caller"
    what

(* E001 applies in lib/ outside the sanctioned surfaces: lib/obs owns
   logging, lib/analysis is the linter itself (it reads the source tree it
   checks), and [io_modules] names the persistence boundary. *)
let e001_applies (u : Callgraph.unit_info) =
  in_dir "lib" u.path
  && (not (in_dir "obs" u.path))
  && (not (in_dir "analysis" u.path))
  && not (List.mem u.basename io_modules)

(* E001 over one binding's own sites: an unshadowed reference to an IO
   builtin.  Only a reference no project binding answers to is
   classified: a sibling binding that shares a builtin's name (an [input]
   helper, say) is not the builtin. *)
let check_e001 own =
  List.filter_map
    (fun (s : Sites.site) ->
      match s.kind with
      | Ref id when (not id.shadowed) && id.targets = [] && not (Sites.active s "E001") ->
          Option.map
            (fun what -> Finding.of_location ~id:"E001" ~message:(e001_message what) s.loc)
            (io_of_path id.path)
      | _ -> None)
    own

(* Iteration entry points whose callback observes container order. *)
let order_sources =
  [ [ "Hashtbl"; "fold" ]; [ "Hashtbl"; "iter" ]; [ "Queue"; "fold" ]; [ "Queue"; "iter" ] ]

let sort_suffixes =
  [
    [ "List"; "sort" ]; [ "List"; "sort_uniq" ]; [ "List"; "stable_sort" ];
    [ "List"; "fast_sort" ]; [ "Array"; "sort" ]; [ "Array"; "stable_sort" ];
  ]

let rec is_closure (e : expression) =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> true
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> is_closure e
  | _ -> false

(* Does this closure body build a list (cons, append, rev_append)? *)
let builds_list =
  exists_expr (fun e ->
      match e.pexp_desc with
      | Pexp_construct ({ txt = Longident.Lident "::"; _ }, Some _) -> true
      | Pexp_ident { txt = Longident.Lident "@"; _ } -> true
      | Pexp_ident lid ->
          suffix_name
            [ [ "List"; "rev_append" ]; [ "List"; "append" ]; [ "List"; "cons" ]; [ "Seq"; "cons" ] ]
            (Longident.flatten lid.txt)
          <> None
      | _ -> false)

let n001_message what =
  Printf.sprintf
    "%s builds a list in hash iteration order with no canonicalizing sort in \
     the same binding; the unspecified order escapes into the result — sort \
     it (List.sort) before it leaves the function"
    what

(* N001 over one binding's own sites: an order-dependent fold whose
   literal closure builds a list, in a binding that never sorts — the
   iteration order leaks into a value the advise path may return or
   cache.  Library-scoped: bin/ and bench/ print for humans and may keep
   hash order. *)
let check_n001 own =
  let sorts (s : Sites.site) =
    match s.kind with
    | Ref { path; _ } -> List.exists (fun suffix -> has_suffix ~suffix path) sort_suffixes
    | _ -> false
  in
  let hits =
    List.filter_map
      (fun (s : Sites.site) ->
        match s.kind with
        | Apply ({ path; _ }, args) when not (Sites.active s "N001") -> (
            match suffix_name order_sources path with
            | Some what -> (
                match List.find_opt (fun (l, a) -> l = Asttypes.Nolabel && is_closure a) args with
                | Some (_, c) when builds_list c ->
                    Some (Finding.of_location ~id:"N001" ~message:(n001_message what) s.loc)
                | _ -> None)
            | None -> None)
        | _ -> None)
      own
  in
  if hits = [] || List.exists sorts own then [] else hits

(* ---------------------------------------------------------------- E002 -- *)

(* Container mutators applied to a subject argument. *)
let container_mutator_of_path =
  member_of
    [
      ("Hashtbl", [ "add"; "replace"; "remove"; "reset"; "clear"; "filter_map_inplace" ]);
      ("Queue", [ "add"; "push"; "pop"; "take"; "clear"; "transfer" ]);
      ("Stack", [ "push"; "pop"; "clear" ]);
      ( "Buffer",
        [
          "add_string"; "add_char"; "add_bytes"; "add_buffer"; "add_substring";
          "add_subbytes"; "clear"; "reset"; "truncate";
        ] );
      ("Array", [ "set"; "unsafe_set"; "fill"; "blit" ]);
      ("Bytes", [ "set"; "unsafe_set"; "fill"; "blit" ]);
      ("Dynarray", [ "add_last"; "append"; "clear"; "set"; "remove_last" ]);
    ]

(* Mutators whose *element* comes first and the container second
   ([Queue.add x q], [Stack.push x s]): their subject is the second
   positional argument. *)
let element_first_mutators = [ "Queue.add"; "Queue.push"; "Stack.push" ]

let rec head_ident_name (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident x; _ } -> Some x
  | Pexp_field (b, _) -> head_ident_name b
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_open (_, e) -> head_ident_name e
  | _ -> None

(* A binding's unsuppressed writes to shared state: assignments, counter
   updates, container mutators and mutable-field writes whose target is
   not one of the binding's raw mutable locals.  A local is any name the
   binding let-binds to a [d001_hits] allocation, wherever: a name in
   this table that an inner expression uses without binding it itself
   must come from an enclosing scope, and the only enclosing definition
   the analysis knows of is the raw one.  Atomic operations are never
   writes here. *)
let shared_writes sites (n : Callgraph.node) =
  let own = Sites.node_sites sites n in
  let mutable_fields = Sites.mutable_fields sites n.u in
  let locals = Hashtbl.create 8 in
  List.iter
    (fun (s : Sites.site) ->
      match s.kind with
      | Let ({ ppat_desc = Ppat_var { txt = x; _ }; _ }, rhs, _) ->
          if d001_hits mutable_fields [] rhs <> [] then Hashtbl.replace locals x ()
      | _ -> ())
    own;
  let write target describe =
    match Option.bind target head_ident_name with
    | Some x when Hashtbl.mem locals x -> None
    | _ -> Some (describe (Option.bind target sym))
  in
  let named fmt anon = function Some x -> Printf.sprintf fmt x | None -> anon in
  List.filter_map
    (fun (s : Sites.site) ->
      let what =
        match s.kind with
        | Apply ({ path = [ ":=" ] | [ "Stdlib"; ":=" ]; _ }, args) ->
            write (first_nolabel args) (named "assignment to %s" "ref assignment")
        | Apply ({ path = [ ("incr" | "decr") ] | [ "Stdlib"; ("incr" | "decr") ]; _ }, args) ->
            write (first_nolabel args) (named "counter update of %s" "counter update")
        | Apply ({ path; _ }, args) -> (
            match container_mutator_of_path path with
            | Some m ->
                let target =
                  if List.mem m element_first_mutators then
                    match nolabel_args args with _ :: a :: _ -> Some a | _ -> None
                  else first_nolabel args
                in
                write target (function Some x -> Printf.sprintf "%s on %s" m x | None -> m)
            | None -> None)
        | Setfield (base, f, _) ->
            write (Some base) (function
              | Some x -> Printf.sprintf "mutable-field write %s.%s" x f
              | None -> Printf.sprintf "mutable-field write .%s" f)
        | _ -> None
      in
      match what with
      | Some what when not (Sites.active s "E002") -> Some (s.loc, what)
      | _ -> None)
    own

let e002_message what root via =
  Printf.sprintf
    "shared-state write (%s) reachable from %s's virtual-config path%s; \
     what-if evaluation beyond the sanctioned warm_stats/prepare sites \
     must stay effect-free — thread state through arguments or move the \
     write outside the batch"
    what root
    (match via with [] -> "" | _ -> " via " ^ String.concat " -> " via)

(* E002: a [Callgraph.reach] from every [batch_roots] binding (the
   virtual-config what-if path) over the resolved calls, flagging the
   shared-state writes of every binding it enters with the trail that led
   there (host excluded).  Cuts: [warm_stats] and the optimizer's
   [prepare] (which binds a statement to the statistics warmed before it)
   are the sanctioned binding points, lib/obs is instrumentation, and the
   [interner] module's tables hand out identities and memoize pure
   functions, so a write there never changes a result.  The root itself
   is never cut.  A site two roots reach is reported once. *)
let check_e002 sites =
  let sanctioned (m : Callgraph.node) =
    String.equal m.name "warm_stats"
    || (String.equal m.name "prepare" && String.equal m.u.basename "optimizer")
    || in_dir "obs" m.u.path
    || String.equal m.u.basename "interner"
  in
  let emitted = Hashtbl.create 16 in
  let findings = ref [] in
  let emit root via ((loc : Location.t), what) =
    let p = loc.loc_start in
    let dedup = (p.Lexing.pos_fname, p.Lexing.pos_lnum, p.Lexing.pos_cnum) in
    if not (Hashtbl.mem emitted dedup) then begin
      Hashtbl.replace emitted dedup ();
      findings :=
        Finding.of_location ~id:"E002" ~message:(e002_message what root via) loc :: !findings
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
          List.iter (emit root.name via) (shared_writes sites m))
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
   [missing_mli]; E002 is whole-program. *)
let check_unit sites (u : Callgraph.unit_info) =
  let notes = Suppress.lint_note_lines u.source in
  let nodes =
    List.filter (fun (n : Callgraph.node) -> n.u == u) (Callgraph.nodes (Sites.graph sites))
  in
  let e001 = e001_applies u and n001 = in_dir "lib" u.path in
  let per_binding n =
    let own = Sites.node_sites sites n in
    check_x001 own
    @ (if e001 then check_e001 own else [])
    @ if n001 then check_n001 own else []
  in
  List.sort Finding.compare
    (check_d001 (Sites.mutable_fields sites u) nodes
    @ List.concat_map per_binding nodes
    @ check_sites ~notes ~d004:(d004_applies u.path) (Sites.unit_sites sites u))

let check_program = check_e002

(* ------------------------------------------------------ check catalog -- *)

type check_info = { id : string; title : string }

let catalog =
  [
    { id = "D001"; title = "module-toplevel mutable state" };
    { id = "D002"; title = "Sys.time used for timing" };
    { id = "D004"; title = "wall-clock read outside lib/obs" };
    { id = "E001"; title = "IO effect in library code" };
    { id = "E002"; title = "shared-state write on the virtual-config path" };
    { id = "H001"; title = "module without an .mli interface" };
    { id = "H002"; title = "failwith/assert false without a lint note" };
    { id = "N001"; title = "hash iteration order escapes into a result" };
    { id = "R003"; title = "non-atomic read-modify-write on an Atomic.t" };
    { id = "X001"; title = "save/restore skipped on an exceptional path" };
  ]
