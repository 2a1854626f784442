(* Interprocedural effect inference over the cross-unit call graph.

   Per toplevel value binding (a [Callgraph.node]) the pass computes a
   summary in a small effect lattice — the powerset of

     ReadsMutable      reads shared mutable state (deref, container read,
                       mutable-field read, Atomic.get, raw toplevel global)
     WritesMutable     writes state that may outlive the call (ref
                       assignment, container mutator, mutable-field write
                       whose target is not a per-call local allocation;
                       Atomic writes count but are synchronized — see the
                       witness rules below)
     PerformsIO        unambiguous channel/console/filesystem traffic
                       (printf/print_*/output_*/open_*/In_channel/...;
                       [sprintf]/[asprintf] are pure string builders and do
                       not count, and [fprintf] is excluded because a pp
                       function cannot know its formatter's sink)
     OrderDependent    consumes Hashtbl/Queue iteration order
                       ([fold]/[iter]/[to_seq*]) or physical equality
     Nondeterministic  global [Random.*] (seeded [Random.State.*] is
                       deterministic and exempt), raw clock reads, float
                       accumulation into shared state

   [Pure] is the empty set.  One scan of each body yields its local flags
   and local witness sites; the total flags are the pass's one transitive
   fact, a [Callgraph.fixpoint] of [lor] over the resolved calls (module
   aliases are already expanded by [Callgraph.resolve]; an ambiguous
   reference joins the flags of every plausible target).

   The witness sites stay local.  Downstream checks walk to the ones they
   need with [Callgraph.reach] over [calls], so findings anchor at real
   source locations with a call trail:

     raw-global refs     references to raw toplevel mutable state — R001's
                         sites.  A binding carrying [@lint.allow "R001"] or
                         taking a [Mutex.lock] is lock-disciplined
                         ([lock_disciplined]); R001's walk never enters
                         one.
     mutation sites      alias-expanded [Catalog.*]/[Doc_store.*] mutator
                         references — D003's sites, reached backwards from
                         the what-if modules regardless of lock discipline:
                         a mutex does not make a what-if mutation
                         acceptable.
     shared writes       E002's sites, walked from the batch roots.
     order witnesses     Hashtbl/Queue folds whose literal closure builds a
                         list with no canonicalizing sort anywhere in the
                         same binding — N001's sites.  Iteration through an
                         opaque function value only sets the flag.
     float accumulations read-modify-write float updates of non-local
                         state ([t := !t +. x], [r.sum <- r.sum +. x]) —
                         N002's sites, walked regardless of lock
                         discipline: a mutex serializes the updates but
                         does not fix their order, so the sum still varies
                         across domains.

   Soundness/incompleteness trade-offs (DESIGN.md §5h): the analysis is
   syntactic over the untyped parsetree.  Atomic/Mutex/DLS-wrapped state is
   treated as synchronized (Atomic writes never become shared-write
   witnesses); mutation through a wrapper the matcher does not know, a
   container operation referenced point-free rather than applied, and
   first-class-function escape are invisible; flags over-approximate
   through ambiguous edges.  Absence of a flag is evidence, not proof. *)

open Parsetree

(* ------------------------------------------ shared syntactic classifiers -- *)

let allow id attrs = List.mem id (Suppress.allow_ids attrs)

let has_suffix ~suffix path =
  let rec strip k l = if k <= 0 then Some l else match l with [] -> None | _ :: t -> strip (k - 1) t in
  match strip (List.length path - List.length suffix) path with
  | Some tail -> List.equal String.equal tail suffix
  | None -> false

let nolabel_args args =
  List.filter_map
    (fun (label, (a : expression)) ->
      match label with Asttypes.Nolabel -> Some a | _ -> None)
    args

(* The subject of a call: its first unlabeled argument ([Mutex.lock m],
   [Par.map ~domains f arr]'s task, [x := v]'s target). *)
let first_nolabel args = match nolabel_args args with a :: _ -> Some a | [] -> None

(* Symbolic identity of a lock/atomic/target expression: dotted ident or
   field path ("pool.lock", "t.shards.lock"); [None] when the expression
   has no stable name (array cells, call results). *)
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
let exists_expr p (e : expression) =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          if not !found then
            if p e then found := true else Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  !found

let ident_with_suffix suffixes (e : expression) =
  match e.pexp_desc with
  | Pexp_ident lid ->
      let path = Longident.flatten lid.txt in
      List.exists (fun suffix -> has_suffix ~suffix path) suffixes
  | _ -> false

(* Field names declared [mutable] anywhere in this compilation unit.  The
   parsetree carries no type information, so this is the file-local
   approximation of "record literal with mutable fields". *)
let mutable_field_names structure =
  let fields = Hashtbl.create 16 in
  let type_declaration _it (td : type_declaration) =
    (match td.ptype_kind with
    | Ptype_record labels ->
        List.iter
          (fun (ld : label_declaration) ->
            if ld.pld_mutable = Asttypes.Mutable then
              Hashtbl.replace fields ld.pld_name.txt ())
          labels
    | _ -> ());
    ()
  in
  let it =
    {
      Ast_iterator.default_iterator with
      type_declaration =
        (fun it td ->
          type_declaration it td;
          Ast_iterator.default_iterator.type_declaration it td);
    }
  in
  it.structure it structure;
  fields

(* A binding whose right-hand side evaluates to one of these at module
   initialization is shared mutable state. *)
let flagged_allocators =
  [
    ([ "Hashtbl"; "create" ], "Hashtbl.create");
    ([ "Buffer"; "create" ], "Buffer.create");
    ([ "Queue"; "create" ], "Queue.create");
    ([ "Stack"; "create" ], "Stack.create");
    ([ "Weak"; "create" ], "Weak.create");
    ([ "Dynarray"; "create" ], "Dynarray.create");
    ([ "Bytes"; "create" ], "Bytes.create");
    ([ "Bytes"; "make" ], "Bytes.make");
    ([ "Array"; "make" ], "Array.make");
    ([ "Array"; "create_float" ], "Array.create_float");
    ([ "Array"; "init" ], "Array.init");
    ([ "Array"; "make_matrix" ], "Array.make_matrix");
  ]

(* Wrappers that make toplevel state domain-safe (or defer it): their
   arguments may allocate freely. *)
let safe_wrappers =
  [
    [ "Atomic"; "make" ];
    [ "DLS"; "new_key" ];
    [ "Mutex"; "create" ];
    [ "Condition"; "create" ];
    [ "Semaphore"; "Counting"; "make" ];
    [ "Semaphore"; "Binary"; "make" ];
    [ "Lazy"; "from_fun" ];
    [ "Lazy"; "from_val" ];
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
        let path = Longident.flatten lid.txt in
        if List.exists (fun suffix -> has_suffix ~suffix path) safe_wrappers then acc
        else if List.equal String.equal path [ "ref" ]
                || List.equal String.equal path [ "Stdlib"; "ref" ]
        then (e.pexp_loc, "ref") :: acc
        else (
          match
            List.find_opt (fun (suffix, _) -> has_suffix ~suffix path) flagged_allocators
          with
          | Some (_, name) -> (e.pexp_loc, name) :: acc
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

(* All variable names bound by patterns anywhere inside [e] (params, lets,
   match arms).  Over-approximate on purpose: treating a sibling-branch
   binder as bound only ever silences a finding, never invents one. *)
let bound_vars (e : expression) =
  let bound = Hashtbl.create 16 in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun it p ->
          (match p.ppat_desc with
          | Ppat_var v -> Hashtbl.replace bound v.txt ()
          | _ -> ());
          Ast_iterator.default_iterator.pat it p);
    }
  in
  it.expr it e;
  bound

let contains_mutex_lock = exists_expr (ident_with_suffix [ [ "Mutex"; "lock" ] ])

(* Raw mutable locals let-bound anywhere inside a node body, name -> kind.
   Scope is deliberately ignored: a name in this table that an inner
   expression uses without binding it itself must come from an enclosing
   scope, and the only enclosing definition the analysis knows of is the
   raw one. *)
let raw_locals_of mutable_fields (e : expression) =
  let locals = Hashtbl.create 8 in
  let it =
    {
      Ast_iterator.default_iterator with
      value_binding =
        (fun it (vb : value_binding) ->
          (match vb.pvb_pat.ppat_desc with
          | Ppat_var v -> (
              match d001_hits mutable_fields [] vb.pvb_expr with
              | [] -> ()
              | (_, what) :: _ -> Hashtbl.replace locals v.txt what)
          | _ -> ());
          Ast_iterator.default_iterator.value_binding it vb);
    }
  in
  it.expr it e;
  locals

(* ------------------------------------------------------------ the lattice -- *)

type effect_kind =
  | Reads_mutable
  | Writes_mutable
  | Performs_io
  | Order_dependent
  | Nondeterministic

let all_kinds =
  [ Reads_mutable; Writes_mutable; Performs_io; Order_dependent; Nondeterministic ]

let kind_bit = function
  | Reads_mutable -> 1
  | Writes_mutable -> 2
  | Performs_io -> 4
  | Order_dependent -> 8
  | Nondeterministic -> 16

let kind_name = function
  | Reads_mutable -> "ReadsMutable"
  | Writes_mutable -> "WritesMutable"
  | Performs_io -> "PerformsIO"
  | Order_dependent -> "OrderDependent"
  | Nondeterministic -> "Nondeterministic"

let kinds_of_bits bits = List.filter (fun k -> bits land kind_bit k <> 0) all_kinds

let bits_to_string bits =
  match kinds_of_bits bits with
  | [] -> "Pure"
  | ks -> String.concat "," (List.map kind_name ks)

(* -------------------------------------------------------------- witnesses -- *)

type site = { s_loc : Location.t; s_what : string; s_suppressed : bool }

type race_witness = {
  w_loc : Location.t;
  w_global : string;      (* binding name of the raw global *)
  w_kind : string;        (* allocator: "ref", "Hashtbl.create", ... *)
  w_path : string;        (* unit path declaring the global *)
  w_suppressed : bool;
}

(* ----------------------------------------------------------- op classifiers -- *)

(* Mutation entry points of the shared catalog/store API (D003's site set).
   [warm_stats] is deliberately absent: it is the sanctioned synchronization
   point what-if entry code calls *before* fanning out (PR 1's contract). *)
let catalog_mutators =
  [
    "add_table"; "create_index"; "drop_index"; "drop_all_indexes";
    "refresh_indexes"; "runstats"; "runstats_all";
  ]

let store_mutators = [ "insert"; "delete"; "replace"; "update" ]

let mutator_of_path path =
  match List.rev path with
  | f :: m :: _ when String.equal m "Catalog" && List.mem f catalog_mutators ->
      Some ("Catalog." ^ f)
  | f :: m :: _ when String.equal m "Doc_store" && List.mem f store_mutators ->
      Some ("Doc_store." ^ f)
  | _ -> None

(* Container mutators applied to a subject argument. *)
let container_mutators =
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

let container_mutator_of_path path =
  match List.rev path with
  | f :: m :: _ ->
      List.find_map
        (fun (mname, fns) ->
          if String.equal m mname && List.mem f fns then Some (mname ^ "." ^ f) else None)
        container_mutators
  | _ -> None

(* Container reads ([Hashtbl.hash] is a pure function of its argument and
   deliberately absent). *)
let container_readers =
  [
    ("Hashtbl", [ "find"; "find_opt"; "find_all"; "mem"; "length" ]);
    ("Queue", [ "peek"; "peek_opt"; "top"; "length"; "is_empty" ]);
    ("Stack", [ "top"; "top_opt"; "length"; "is_empty" ]);
    ("Buffer", [ "contents"; "length"; "nth"; "sub"; "to_bytes" ]);
  ]

let container_reader_of_path path =
  match List.rev path with
  | f :: m :: _ ->
      List.exists
        (fun (mname, fns) -> String.equal m mname && List.mem f fns)
        container_readers
  | _ -> false

let atomic_writers = [ "set"; "incr"; "decr"; "fetch_and_add"; "exchange"; "compare_and_set" ]

(* Iteration entry points whose callback observes container order. *)
let order_sources =
  [
    ([ "Hashtbl"; "fold" ], "Hashtbl.fold");
    ([ "Hashtbl"; "iter" ], "Hashtbl.iter");
    ([ "Queue"; "fold" ], "Queue.fold");
    ([ "Queue"; "iter" ], "Queue.iter");
  ]

let seq_sources =
  [
    [ "Hashtbl"; "to_seq" ]; [ "Hashtbl"; "to_seq_keys" ]; [ "Hashtbl"; "to_seq_values" ];
    [ "Queue"; "to_seq" ];
  ]

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
  | [ x ] when List.mem x io_single_idents -> Some x
  | [ "Stdlib"; x ] when List.mem x io_single_idents -> Some x
  | _ -> (
      match List.find_opt (fun suffix -> has_suffix ~suffix path) io_suffixes with
      | Some suffix -> Some (String.concat "." suffix)
      | None -> (
          match List.rev path with
          | f :: m :: _ when String.equal m "In_channel" || String.equal m "Out_channel" ->
              Some (m ^ "." ^ f)
          | _ -> None))

(* Global [Random.*] draws from process-wide hidden state; seeded
   [Random.State.*] is deterministic and exempt (its [State] component keeps
   the second-to-last element from being ["Random"]). *)
let nondet_of_path path =
  match List.rev path with
  | f :: m :: _ when String.equal m "Random" -> Some ("Random." ^ f)
  | _ ->
      List.find_map
        (fun (suffix, name) -> if has_suffix ~suffix path then Some name else None)
        [
          ([ "Unix"; "gettimeofday" ], "Unix.gettimeofday");
          ([ "Unix"; "time" ], "Unix.time");
          ([ "Sys"; "time" ], "Sys.time");
        ]

let phys_eq_path path =
  match path with
  | [ "==" ] | [ "!=" ] | [ "Stdlib"; "==" ] | [ "Stdlib"; "!=" ] -> true
  | _ -> false

(* The parallel fan-out entry points, with their display names.  An
   argument in function position of one of these escapes to another
   domain. *)
let par_entries =
  [
    ([ "Par"; "map" ], "Par.map");
    ([ "Par"; "map_list" ], "Par.map_list");
    ([ "Par"; "iter" ], "Par.iter");
    ([ "Domain"; "spawn" ], "Domain.spawn");
  ]

let par_entry_of_path path =
  List.find_map
    (fun (suffix, name) -> if has_suffix ~suffix path then Some name else None)
    par_entries

let float_ops = [ "+."; "-."; "*."; "/." ]

(* --------------------------------------------------- small AST predicates -- *)

(* The second positional argument (for element-first container ops). *)
let second_arg args = match nolabel_args args with _ :: a :: _ -> Some a | _ -> None

let rec head_ident_name (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident x; _ } -> Some x
  | Pexp_field (b, _) -> head_ident_name b
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_open (_, e) -> head_ident_name e
  | _ -> None

let contains_float_op =
  exists_expr (fun e ->
      match e.pexp_desc with
      | Pexp_ident { txt = Longident.Lident op; _ } -> List.mem op float_ops
      | _ -> false)

(* Does [e] read back the symbolic target [target] (deref or field path)? *)
let reads_target ~target =
  exists_expr (fun e ->
      match e.pexp_desc with
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Longident.Lident "!"; _ }; _ }, args)
        ->
          Option.bind (first_nolabel args) sym = Some target
      | Pexp_field _ -> sym e = Some target
      | _ -> false)

(* Does this closure body build a list (cons, append, rev_append)? *)
let builds_list =
  exists_expr (fun e ->
      match e.pexp_desc with
      | Pexp_construct ({ txt = Longident.Lident "::"; _ }, Some _) -> true
      | Pexp_ident { txt = Longident.Lident "@"; _ } -> true
      | _ ->
          ident_with_suffix
            [ [ "List"; "rev_append" ]; [ "List"; "append" ]; [ "List"; "cons" ];
              [ "Seq"; "cons" ] ]
            e)

let contains_sort = exists_expr (ident_with_suffix sort_suffixes)

(* Read-modify-write float updates ([t := !t +. x], [r.sum <- r.sum +. x])
   whose target head is not exempted (per-call raw locals for a whole node,
   closure-bound names for a parallel task body).  [stack0] seeds the
   suppression stack with the enclosing binding's attributes; the [bool] per
   site is "suppressed by an [@lint.allow "N002"] attribute". *)
let float_acc_sites ?(stack0 = []) ~exempt (e : expression) =
  let acc = ref [] in
  let stack = ref [ stack0 ] in
  let active id = List.exists (List.mem id) !stack in
  let exempted base =
    match head_ident_name base with Some x -> exempt x | None -> false
  in
  let record loc tsym =
    acc := (loc, Printf.sprintf "float accumulation into %s" tsym, active "N002") :: !acc
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          stack := Suppress.allow_ids e.pexp_attributes :: !stack;
          (match e.pexp_desc with
          | Pexp_apply
              ( { pexp_desc = Pexp_ident { txt = Longident.Lident ":="; _ }; _ },
                (Asttypes.Nolabel, target) :: (Asttypes.Nolabel, value) :: _ ) -> (
              match sym target with
              | Some tsym
                when (not (exempted target))
                     && contains_float_op value
                     && reads_target ~target:tsym value ->
                  record e.pexp_loc tsym
              | _ -> ())
          | Pexp_setfield (base, flid, value) -> (
              match (sym base, List.rev (Longident.flatten flid.txt)) with
              | Some bsym, f :: _ ->
                  let tsym = bsym ^ "." ^ f in
                  if
                    (not (exempted base))
                    && contains_float_op value
                    && reads_target ~target:tsym value
                  then record e.pexp_loc tsym
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e;
          stack := List.tl !stack);
    }
  in
  it.expr it e;
  List.rev !acc

(* --------------------------------------------------------- internal state -- *)

type info = {
  locals : (string, string) Hashtbl.t;  (* raw per-call allocations, name -> kind *)
  calls : Callgraph.node list;          (* resolved references, shadow-skipped, sorted *)
  local_flags : int;
  io : site list;
  order : site list;                    (* N001 witnesses *)
  writes : site list;                   (* shared-target writes, E002 witnesses *)
  mutations : site list;                (* catalog/store mutator refs, D003 *)
  globals : race_witness list;          (* raw-global refs, R001 *)
  accs : site list;                     (* float accumulations, N002 *)
  fanout : bool;                        (* references a Par/Domain fan-out *)
  sum_list : bool;                      (* references Par.sum_list *)
  ffolds : site list;                   (* float List/Array.fold_left sites *)
  blocked : bool;                       (* lock-disciplined or allow "R001" *)
}

type t = {
  graph : Callgraph.t;
  infos : (string * string, info) Hashtbl.t;
  total : Callgraph.node -> int;        (* flags joined over every callee *)
  sorted : Callgraph.node list;
  fields : (string, (string, unit) Hashtbl.t) Hashtbl.t;
      (* unit path -> mutable field names declared there.  Kept per-unit on
         purpose: classifying a record literal by a field name that is only
         [mutable] in some *other* unit's unrelated type would invent
         findings. *)
  raw_memo : (string * string, string option) Hashtbl.t;
}

let fields_of t (u : Callgraph.unit_info) =
  match Hashtbl.find_opt t.fields u.path with
  | Some f -> f
  | None ->
      let f = mutable_field_names u.structure in
      Hashtbl.replace t.fields u.path f;
      f

(* Is this graph node raw module-toplevel mutable state?  Returns the
   allocator kind ("ref", "Hashtbl.create", ...).  A node carrying
   [@lint.allow "R001"] never classifies as raw: the suppression covers
   every access to it. *)
let raw_global t (n : Callgraph.node) =
  let k = Callgraph.key n in
  match Hashtbl.find_opt t.raw_memo k with
  | Some r -> r
  | None ->
      let r =
        if allow "R001" n.attrs then None
        else
          match d001_hits (fields_of t n.u) [] n.expr with
          | [] -> None
          | (_, what) :: _ -> Some what
      in
      Hashtbl.replace t.raw_memo k r;
      r

(* ------------------------------------------------------ per-node local scan -- *)

let scan_node t (n : Callgraph.node) =
  let graph = t.graph in
  let mutable_fields = fields_of t n.u in
  let locals = raw_locals_of mutable_fields n.expr in
  let bound = bound_vars n.expr in
  let has_sort = contains_sort n.expr in
  let calls = Hashtbl.create 8 in
  let flags = ref 0 in
  let io = ref [] and order = ref [] and writes = ref [] in
  let mutations = ref [] and globals = ref [] and ffolds = ref [] in
  let fanout = ref false and sum_list = ref false in
  let set k = flags := !flags lor kind_bit k in
  let stack = ref [ Suppress.allow_ids n.attrs ] in
  let active id = List.exists (List.mem id) !stack in
  let local_target target =
    match Option.bind target head_ident_name with
    | Some x -> Hashtbl.mem locals x
    | None -> false
  in
  let record_write what loc =
    set Writes_mutable;
    writes := { s_loc = loc; s_what = what; s_suppressed = active "E002" } :: !writes
  in
  (* Classification of one (shadow-checked) identifier reference. *)
  let classify_ident path loc =
    let expanded = Callgraph.expand graph n.u path in
    if par_entry_of_path expanded <> None then fanout := true;
    (if has_suffix ~suffix:[ "Par"; "sum_list" ] expanded then sum_list := true);
    (match mutator_of_path expanded with
    | Some m ->
        set Writes_mutable;
        if not (active "D003") then
          mutations := { s_loc = loc; s_what = m; s_suppressed = false } :: !mutations
    | None -> ());
    let targets = Callgraph.resolve graph n.u path in
    if targets = [] then begin
      (* No project binding answers to this path: classify stdlib/runtime
         builtins.  Gating on empty resolution keeps a sibling binding that
         happens to share a builtin's name (an [input] helper, say) from
         classifying as the builtin. *)
      (match io_of_path path with
      | Some what ->
          set Performs_io;
          io := { s_loc = loc; s_what = what; s_suppressed = active "E001" } :: !io
      | None -> ());
      (match nondet_of_path path with Some _ -> set Nondeterministic | None -> ());
      if phys_eq_path path then set Order_dependent
    end
    else
      List.iter
        (fun (tgt : Callgraph.node) ->
          let tk = Callgraph.key tgt in
          if tk <> Callgraph.key n then Hashtbl.replace calls tk tgt;
          match raw_global t tgt with
          | Some kind ->
              set Reads_mutable;
              globals :=
                {
                  w_loc = loc;
                  w_global = tgt.name;
                  w_kind = kind;
                  w_path = tgt.u.path;
                  w_suppressed = active "R001";
                }
                :: !globals
          | None -> ())
        targets
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          stack := Suppress.allow_ids e.pexp_attributes :: !stack;
          (match e.pexp_desc with
          | Pexp_ident lid -> (
              let path = Longident.flatten lid.txt in
              match path with
              | [ x ] when Hashtbl.mem bound x -> ()  (* shadowed by a binder *)
              | _ -> classify_ident path e.pexp_loc)
          | Pexp_apply ({ pexp_desc = Pexp_ident lid; _ }, args) -> (
              let path = Longident.flatten lid.txt in
              let target = first_nolabel args in
              match path with
              | [ ":=" ] | [ "Stdlib"; ":=" ] ->
                  if not (local_target target) then
                    record_write
                      (match Option.bind target sym with
                      | Some s -> Printf.sprintf "assignment to %s" s
                      | None -> "ref assignment")
                      e.pexp_loc
              | [ "incr" ] | [ "Stdlib"; "incr" ] | [ "decr" ] | [ "Stdlib"; "decr" ] ->
                  if not (local_target target) then
                    record_write
                      (match Option.bind target sym with
                      | Some s -> Printf.sprintf "counter update of %s" s
                      | None -> "counter update")
                      e.pexp_loc
              | [ "!" ] | [ "Stdlib"; "!" ] ->
                  if not (local_target target) then set Reads_mutable
              | _ ->
                  (match container_mutator_of_path path with
                  | Some what ->
                      let target =
                        if List.mem what element_first_mutators then second_arg args
                        else target
                      in
                      if not (local_target target) then
                        record_write
                          (match Option.bind target sym with
                          | Some s -> Printf.sprintf "%s on %s" what s
                          | None -> what)
                          e.pexp_loc
                  | None -> ());
                  (if container_reader_of_path path && not (local_target target) then
                     set Reads_mutable);
                  (if has_suffix ~suffix:[ "Atomic"; "get" ] path then set Reads_mutable);
                  (if
                     List.exists
                       (fun f -> has_suffix ~suffix:[ "Atomic"; f ] path)
                       atomic_writers
                   then
                     (* Synchronized: a write, but never a shared-write
                        (E002) witness. *)
                     set Writes_mutable);
                  (if
                     (has_suffix ~suffix:[ "List"; "fold_left" ] path
                     || has_suffix ~suffix:[ "Array"; "fold_left" ] path)
                     && (match args with
                        | (Asttypes.Nolabel, f) :: _ -> contains_float_op f
                        | _ -> false)
                   then
                     ffolds :=
                       {
                         s_loc = e.pexp_loc;
                         s_what = String.concat "." path ^ " over floats";
                         s_suppressed = active "N002";
                       }
                       :: !ffolds);
                  (match
                     List.find_opt
                       (fun (suffix, _) -> has_suffix ~suffix path)
                       order_sources
                   with
                  | Some (_, what) -> (
                      set Order_dependent;
                      let closure =
                        List.find_map
                          (fun (label, (a : expression)) ->
                            match label with
                            | Asttypes.Nolabel when is_closure a -> Some a
                            | _ -> None)
                          args
                      in
                      match closure with
                      | Some c when builds_list c && not has_sort ->
                          order :=
                            {
                              s_loc = e.pexp_loc;
                              s_what = what;
                              s_suppressed = active "N001";
                            }
                            :: !order
                      | _ -> ())
                  | None ->
                      if List.exists (fun suffix -> has_suffix ~suffix path) seq_sources
                      then set Order_dependent))
          | Pexp_setfield (base, flid, _) ->
              let base_local =
                match head_ident_name base with
                | Some x -> Hashtbl.mem locals x
                | None -> false
              in
              if not base_local then
                record_write
                  (let fname =
                     match List.rev (Longident.flatten flid.txt) with
                     | f :: _ -> f
                     | [] -> "?"
                   in
                   match sym base with
                   | Some s -> Printf.sprintf "mutable-field write %s.%s" s fname
                   | None -> Printf.sprintf "mutable-field write .%s" fname)
                  e.pexp_loc
          | Pexp_field (_, flid) -> (
              match List.rev (Longident.flatten flid.txt) with
              | f :: _ when Hashtbl.mem mutable_fields f -> set Reads_mutable
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e;
          stack := List.tl !stack);
    }
  in
  it.expr it n.expr;
  let accs =
    List.map
      (fun (loc, what, suppressed) ->
        set Nondeterministic;
        { s_loc = loc; s_what = what; s_suppressed = suppressed })
      (float_acc_sites
         ~stack0:(Suppress.allow_ids n.attrs)
         ~exempt:(fun x -> Hashtbl.mem locals x)
         n.expr)
  in
  {
    locals;
    calls = List.sort Callgraph.by_key (Hashtbl.fold (fun _ tgt acc -> tgt :: acc) calls []);
    local_flags = !flags;
    io = List.rev !io;
    order = List.rev !order;
    writes = List.rev !writes;
    mutations = List.rev !mutations;
    globals = List.rev !globals;
    accs;
    fanout = !fanout;
    sum_list = !sum_list;
    ffolds = List.rev !ffolds;
    blocked = allow "R001" n.attrs || contains_mutex_lock n.expr;
  }

(* ---------------------------------------------------------------- analysis -- *)

(* The local scan of every node, plus the one transitive fact this pass
   owns: effect flags joined over the resolved calls.  Witness sites stay
   local; checks reach them through [Callgraph.reach]. *)
let analyze graph =
  let infos = Hashtbl.create 256 in
  let info n = Hashtbl.find infos (Callgraph.key n) in
  let t =
    {
      graph;
      infos;
      total =
        Callgraph.fixpoint
          ~succ:(fun n -> (info n).calls)
          ~join:( lor )
          (fun n -> (info n).local_flags);
      sorted = List.sort Callgraph.by_key (Callgraph.nodes graph);
      fields = Hashtbl.create 16;
      raw_memo = Hashtbl.create 64;
    }
  in
  List.iter (fun n -> Hashtbl.replace infos (Callgraph.key n) (scan_node t n)) t.sorted;
  t

(* --------------------------------------------------------------- accessors -- *)

let info t n = Hashtbl.find t.infos (Callgraph.key n)

let local_effects t n = kinds_of_bits (info t n).local_flags
let total_effects t n = kinds_of_bits (t.total n)
let local_io t n = (info t n).io
let local_order t n = (info t n).order
let local_writes t n = (info t n).writes
let local_mutations t n = (info t n).mutations
let local_globals t n = (info t n).globals
let local_accumulations t n = (info t n).accs
let raw_locals t n = (info t n).locals
let lock_disciplined t n = (info t n).blocked
let has_par_fanout t n = (info t n).fanout
let uses_sum_list t n = (info t n).sum_list
let float_folds t n = (info t n).ffolds
let calls t n = (info t n).calls

(* -------------------------------------------------------------------- dump -- *)

let dump t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (n : Callgraph.node) ->
      Buffer.add_string buf
        (Printf.sprintf "%s %s: local=%s total=%s\n" n.u.path n.name
           (bits_to_string (info t n).local_flags)
           (bits_to_string (t.total n))))
    t.sorted;
  Buffer.contents buf
