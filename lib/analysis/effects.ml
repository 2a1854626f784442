(* Per-binding effect summaries over the cross-unit call graph.

   Per toplevel value binding (a [Callgraph.node]) the pass folds the
   binding's [Sites] into its local witness sites — the [summary] record:
   E001's IO, N001's order witnesses, E002's shared writes and D003's
   mutator references — with no walk of its own.  Nothing is propagated
   here: a check that needs the sites below a binding walks to them with
   [Callgraph.reach] over [Sites.calls], so findings anchor at real
   source locations with a call trail.

   Soundness/incompleteness trade-offs (DESIGN.md §5h): the analysis is
   syntactic over the untyped parsetree.  Atomic writes never become
   shared-write witnesses; mutation through a wrapper the matcher does not know, a
   container operation referenced point-free rather than applied, and
   first-class-function escape are invisible.  Absence of a witness is
   evidence, not proof. *)

open Parsetree

(* ------------------------------------------ shared syntactic classifiers -- *)

let allow id attrs = List.mem id (Suppress.allow_ids attrs)

let has_suffix ~suffix path =
  let rec strip k l = if k <= 0 then Some l else match l with [] -> None | _ :: t -> strip (k - 1) t in
  match strip (List.length path - List.length suffix) path with
  | Some tail -> List.equal String.equal tail suffix
  | None -> false

(* The first of [suffixes] that [path] ends with, as a dotted name. *)
let suffix_name suffixes path =
  Option.map (String.concat ".") (List.find_opt (fun suffix -> has_suffix ~suffix path) suffixes)

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

let rec is_closure (e : expression) =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> true
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> is_closure e
  | _ -> false

(* Does [e] or some subexpression satisfy [p]?  Stops descending at the
   first hit. *)
let rec exists_expr p (e : expression) =
  p e
  ||
  let found = ref false in
  Sites.iter_child_exprs (fun c -> if not !found then found := exists_expr p c) e;
  !found

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

(* Classify the right-hand side of a module-toplevel binding as raw shared
   mutable state.  Descends through wrappers that merely surround the
   initializer and through data constructors whose payload would still be
   reachable shared state. *)
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

(* -------------------------------------------------------------- witnesses -- *)

type witness = { s_loc : Location.t; s_what : string; s_suppressed : bool }

(* ----------------------------------------------------------- op classifiers -- *)

(* [Module.fn] when the path ends in a member of [table]: (module, fns). *)
let member_of table path =
  match List.rev path with
  | f :: m :: _ ->
      List.find_map
        (fun (m', fns) -> if String.equal m m' && List.mem f fns then Some (m ^ "." ^ f) else None)
        table
  | _ -> None

(* Mutation entry points of the shared catalog/store API (D003's site set).
   [warm_stats] is deliberately absent: an evaluator calls it when it is
   built, to bind its statements to the statistics current then. *)
let mutator_of_path =
  member_of
    [
      ( "Catalog",
        [
          "add_table"; "create_index"; "drop_index"; "drop_all_indexes";
          "refresh_indexes"; "runstats"; "runstats_all";
        ] );
      ("Doc_store", [ "insert"; "delete"; "replace"; "update" ]);
    ]

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
   ([Queue.add x q], [Stack.push x s]) — the subject-argument extraction
   must skip to the second positional argument for these. *)
let element_first_mutators = [ "Queue.add"; "Queue.push"; "Stack.push" ]

(* Iteration entry points whose callback observes container order. *)
let order_sources =
  [ [ "Hashtbl"; "fold" ]; [ "Hashtbl"; "iter" ]; [ "Queue"; "fold" ]; [ "Queue"; "iter" ] ]

let sort_suffixes =
  [
    [ "List"; "sort" ]; [ "List"; "sort_uniq" ]; [ "List"; "stable_sort" ];
    [ "List"; "fast_sort" ]; [ "Array"; "sort" ]; [ "Array"; "stable_sort" ];
  ]

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

(* --------------------------------------------------- small AST predicates -- *)

let rec head_ident_name (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident x; _ } -> Some x
  | Pexp_field (b, _) -> head_ident_name b
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_open (_, e) -> head_ident_name e
  | _ -> None

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

(* --------------------------------------------------------- internal state -- *)

type summary = {
  io : witness list;                    (* E001 *)
  order : witness list;                 (* N001 *)
  writes : witness list;                (* shared-target writes, E002 *)
  mutations : witness list;             (* catalog/store mutator refs, D003 *)
}

type t = { sites : Sites.t; summaries : (string * string, summary) Hashtbl.t }

(* ------------------------------------------------------- the node fold -- *)

(* One node's summary, folded from its sites.  A first pass gathers what
   the classification needs from the whole binding: its raw mutable
   locals (let-bound anywhere; scope is deliberately ignored — a name in
   this table that an inner expression uses without binding it itself
   must come from an enclosing scope, and the only enclosing definition
   the analysis knows of is the raw one), and whether it sorts. *)
let summarize t (n : Callgraph.node) =
  let sites = Sites.node_sites t.sites n in
  let mutable_fields = Sites.mutable_fields t.sites n.u in
  let locals = Hashtbl.create 8 in
  let has_sort = ref false in
  List.iter
    (fun (s : Sites.site) ->
      match s.kind with
      | Let (x, rhs) -> (
          match d001_hits mutable_fields [] rhs with
          | (_, what) :: _ -> Hashtbl.replace locals x what
          | [] -> ())
      | Ref { path; _ } ->
          if List.exists (fun suffix -> has_suffix ~suffix path) sort_suffixes then
            has_sort := true
      | _ -> ())
    sites;
  let io = ref [] and order = ref [] and writes = ref [] and mutations = ref [] in
  let local head = match head with Some x -> Hashtbl.mem locals x | None -> false in
  let local_target target = local (Option.bind target head_ident_name) in
  let witness (s : Sites.site) what id =
    { s_loc = s.loc; s_what = what; s_suppressed = Sites.active s id }
  in
  let record_write s what = writes := witness s what "E002" :: !writes in
  (* One unshadowed identifier reference. *)
  let classify_ident (s : Sites.site) (id : Sites.ident) =
    (match mutator_of_path id.expanded with
    | Some m when not (Sites.active s "D003") ->
        mutations := { s_loc = s.loc; s_what = m; s_suppressed = false } :: !mutations
    | _ -> ());
    (* Only when no project binding answers to this path: classify
       stdlib/runtime builtins.  Gating on empty resolution keeps a sibling
       binding that happens to share a builtin's name (an [input] helper,
       say) from classifying as the builtin. *)
    if id.targets = [] then
      match io_of_path id.path with
      | Some what -> io := witness s what "E001" :: !io
      | None -> ()
  in
  (* One application of an identifier. *)
  let classify_apply s path args =
    let target = first_nolabel args in
    match path with
    | [ ":=" ] | [ "Stdlib"; ":=" ] ->
        if not (local_target target) then
          record_write s
            (match Option.bind target sym with
            | Some x -> Printf.sprintf "assignment to %s" x
            | None -> "ref assignment")
    | [ "incr" ] | [ "Stdlib"; "incr" ] | [ "decr" ] | [ "Stdlib"; "decr" ] ->
        if not (local_target target) then
          record_write s
            (match Option.bind target sym with
            | Some x -> Printf.sprintf "counter update of %s" x
            | None -> "counter update")
    | _ -> (
        (match container_mutator_of_path path with
        | Some what ->
            let target =
              if List.mem what element_first_mutators then
                match nolabel_args args with _ :: a :: _ -> Some a | _ -> None
              else target
            in
            if not (local_target target) then
              record_write s
                (match Option.bind target sym with
                | Some x -> Printf.sprintf "%s on %s" what x
                | None -> what)
        | None -> ());
        match suffix_name order_sources path with
        | Some what -> (
            let closure =
              List.find_map
                (fun (label, (a : expression)) ->
                  match label with Asttypes.Nolabel when is_closure a -> Some a | _ -> None)
                args
            in
            match closure with
            | Some c when builds_list c && not !has_sort ->
                order := witness s what "N001" :: !order
            | _ -> ())
        | None -> ())
  in
  List.iter
    (fun (s : Sites.site) ->
      match s.kind with
      | Ref id when not id.shadowed -> classify_ident s id
      | Apply (id, args) -> classify_apply s id.path args
      | Setfield (base, f, _) ->
          if not (local (head_ident_name base)) then
            record_write s
              (match sym base with
              | Some x -> Printf.sprintf "mutable-field write %s.%s" x f
              | None -> Printf.sprintf "mutable-field write .%s" f)
      | _ -> ())
    sites;
  {
    io = List.rev !io;
    order = List.rev !order;
    writes = List.rev !writes;
    mutations = List.rev !mutations;
  }

(* ---------------------------------------------------------------- analysis -- *)

(* The fold of every node.  Witness sites stay local; checks reach them
   through [Callgraph.reach]. *)
let analyze sites =
  let t = { sites; summaries = Hashtbl.create 256 } in
  List.iter
    (fun n -> Hashtbl.replace t.summaries (Callgraph.key n) (summarize t n))
    (Callgraph.nodes (Sites.graph sites));
  t

let summary t n = Hashtbl.find t.summaries (Callgraph.key n)
