(* Benefit evaluation (Sections III and VI-C).

   Benefit(x1..xn; W) = Σ_{s∈W} freq_s · ((s_old − s_new) − Σ_i mc(x_i, s))

   s_old / s_new come from the optimizer's Evaluate Indexes mode.  The
   evaluation is made efficient exactly as in the paper:

   - only statements in the union of the configuration's affected sets are
     re-optimized (others cannot change cost);
   - the configuration is partitioned into sub-configurations of indexes with
     overlapping affected sets (indexes in different sub-configurations
     cannot interact);
   - evaluated sub-configurations are cached.

   A configuration value ({!config}) carries its partition and each
   sub-configuration's delta, so a search that extends it by one index
   evaluates only the sub-configuration that index joins.

   Every statement is prepared once, when the evaluator is built
   ([Optimizer.prepare]: rewritten, its configuration-independent costs
   derived, its index-scan parts memoized from then on), so the prepared
   statements are bound to the evaluator's index-cost factor and to the
   statistics it was created over — like [base_costs], the sub-configuration
   cache and the table statistics that candidate sizes and maintenance
   charges derive from.  The evaluator keeps no catalog.  What-if calls pass
   the virtual configuration to the optimizer explicitly
   ([~virtual_config]), so an evaluation never mutates the catalog, and they
   go through [Optimizer.optimize_costs]: ONE optimizer invocation per
   (sub-)configuration costs every statement it needs against one index
   setup, and builds no plan.  Batch outputs are positional and bit-for-bit
   the per-statement plans' costs, and every sum is folded in a fixed
   order.  [evaluations] counts optimizer INVOCATIONS: a batch of any size
   counts one (the raw per-statement equivalent lives in
   [Optimizer.counters.batch_setup_saved]).

   The sub-configuration cache is keyed by sorted arrays of interned
   logical-index ids (no strings are built or hashed on the hot path).  An
   entry holds the per-(sub-configuration × statement) costs — not just
   the delta — so any later request over the same fingerprint (another
   search round, a [workload_cost] report over the same configuration)
   skips planning entirely.

   Note: the paper prints the maintenance term outside the frequency product;
   we scale mc by the statement frequency, which is the only reading under
   which repeating an update statement matters. *)

module Catalog = Xia_index.Catalog
module Index_stats = Xia_index.Index_stats
module Maintenance = Xia_index.Maintenance
module Optimizer = Xia_optimizer.Optimizer
module Plan = Xia_optimizer.Plan
module Workload = Xia_workload.Workload
module Ast = Xia_query.Ast
module Int_set = Candidate.Int_set

(* One cached sub-configuration: the per-statement what-if costs computed so
   far, plus the defs list the first computation used.  [e_defs] is pinned at
   first compute because the planner keeps the FIRST index on an exact cost
   tie — extending the entry under a reordered defs list could flip a
   tie-break and disagree with the cached costs. *)
type entry = {
  e_defs : Xia_index.Index_def.t list;
  e_costs : (int, float) Hashtbl.t;  (* statement index -> total cost *)
}

(* The pre-passes' access index.  The cost floors and plan usage
   ([bounds], [compute_used_in_plans]) ask, of every statement, which
   candidates affect it and which serve one of its indexable accesses.
   Testing every (statement, candidate) pair scans the whole pool once per
   statement.  The access index holds each statement's distinct access
   keys ([Optimizer.access_keys]) and, per key, the candidates that serve
   it, matched once per key: statements of one workload share few keys
   (2,000 queries, 141 keys).  Plan usage reads only basics, so the keys
   are matched against basics and against generals on separate first
   uses.  Which candidates affect a statement is read off the affected
   sets. *)
type access_index = {
  set : Candidate.set;
  keys : int array array;  (* statement -> its access keys *)
  serving : (int, int array) Hashtbl.t option array;
      (* basics, then generals: access key -> the ids of the candidates of
         that origin serving it, ascending *)
}

type t = {
  table_stats : (string * Xia_storage.Path_stats.t) list;
      (* every table's statistics, read once at creation *)
  summary : Workload_summary.t;
  items : Workload.item array;
      (* the summary's representative statements — for a raw summary,
         exactly the workload *)
  prepared : Optimizer.prepared array;  (* per representative *)
  weights : float array;
      (* per representative: the summed frequency of its cluster (for a raw
         summary, the item frequency).  Every cost sum multiplies these, so
         the raw and compressed paths share one code path. *)
  base_costs : float array;       (* per statement, no indexes *)
  all_stmts : int list;           (* every statement index, in order *)
  base_affected : float array;    (* per statement, estimated documents modified *)
  dml : (int * string list) array;
      (* the DML statements, in workload order: index, tables *)
  cache : (int array, entry) Hashtbl.t;  (* fingerprint -> per-statement costs *)
  mutable evaluations : int;      (* optimizer calls made through this evaluator *)
  mutable cache_hits : int;
  mutable pruned : int;           (* configuration evaluations skipped by bounds *)
  size_memo : (int, int) Xia_xpath.Interner.Cache.t;
      (* candidate id -> derived size in bytes; sound because an evaluator
         is always paired with one candidate set (ids are per-set) *)
  aub_memo : (int, float) Xia_xpath.Interner.Cache.t;
      (* candidate id -> atomic-benefit upper bound; same pairing assumption *)
  mutable floors_memo : (float array * float array) option;
      (* per-statement cost floors (see [floors]) and the weighted gaps
         weight_i · (base_i − floor_i) that upper bounds sum; same pairing
         assumption *)
  mutable used_memo : (int, unit) Hashtbl.t option;
      (* memoized [used_in_plans] result; same pairing assumption *)
  mutable useful_memo : (int, unit) Hashtbl.t option;
      (* memoized [useful_ids] result; same pairing assumption *)
  mutable access_memo : access_index option;
      (* the pre-passes' index (see [access_index]); same pairing
         assumption *)
  mutable match_tests : int;
      (* index-access match tests the pre-passes made (see [access_index]) *)
}

(* Observability: cache traffic, mirrored into the metrics registry when
   enabled ("benefit.*" counters, looked up by name at each use).  The
   [evaluations]/[cache_hits] fields stay authoritative (and always on) —
   these counters only exist so a [--metrics] snapshot can report them
   without an evaluator handle. *)
let count name n = if Xia_obs.Obs.on () then Xia_obs.Metrics.add (Xia_obs.Metrics.counter name) n

let summary t = t.summary
let evaluations t = t.evaluations
let cache_hits t = t.cache_hits
let pruned_count t = t.pruned
let cached_sub_configs t = Hashtbl.length t.cache
let match_tests t = t.match_tests

let dml_statements items =
  Array.to_list items
  |> List.mapi (fun i (item : Workload.item) ->
         if Ast.is_dml item.statement then Some (i, Ast.tables item.statement) else None)
  |> List.filter_map Fun.id |> Array.of_list

(* Build an evaluator over a workload summary: the per-statement arrays hold
   the cluster REPRESENTATIVES, and [weights] their cluster frequencies, so
   every downstream cost sum is weighted per cluster.  For a raw summary
   (cluster = statement) this is exactly the historical per-item evaluator.
   [?domains] is accepted and ignored (see benefit.mli). *)
let of_summary ?domains:_ ?index_cost_factor catalog summary =
  let items = Array.of_list (Workload_summary.workload summary) in
  (* Read every table's statistics up front, collecting missing or stale
     ones: the prepared statements, the sizes and the maintenance charges
     all derive from these. *)
  let table_stats =
    List.map (fun name -> (name, Catalog.stats catalog name)) (Catalog.table_names catalog)
  in
  let prepare (item : Workload.item) = Optimizer.prepare ?index_cost_factor catalog item.statement in
  let prepared = Array.map prepare items in
  let base_costs = Optimizer.optimize_costs ~virtual_config:[] prepared in
  {
    table_stats;
    summary;
    items;
    prepared;
    weights = Workload_summary.weights summary;
    base_costs;
    all_stmts = List.init (Array.length items) Fun.id;
    base_affected = Array.map Optimizer.affected_docs prepared;
    dml = dml_statements items;
    cache = Hashtbl.create 512;
    (* one batched invocation costed the whole base workload *)
    evaluations = (if Array.length items = 0 then 0 else 1);
    cache_hits = 0;
    pruned = 0;
    size_memo = Xia_xpath.Interner.Cache.create ~hash:Fun.id ~equal:Int.equal ();
    aub_memo = Xia_xpath.Interner.Cache.create ~hash:Fun.id ~equal:Int.equal ();
    floors_memo = None;
    used_memo = None;
    useful_memo = None;
    access_memo = None;
    match_tests = 0;
  }

let create ?index_cost_factor catalog (workload : Workload.t) =
  of_summary ?index_cost_factor catalog (Workload_summary.raw workload)

let count_evaluations t n =
  t.evaluations <- t.evaluations + n;
  count "benefit.evaluations" n

let count_pruned t n =
  if n > 0 then begin
    t.pruned <- t.pruned + n;
    count "benefit.pruned_configs" n
  end

let count_hit t =
  t.cache_hits <- t.cache_hits + 1;
  count "benefit.cache_hits" 1

(* Heapsort of a float array under [Float.compare], in place.  The floats
   are read and compared unboxed, so sorting allocates nothing. *)
let rec sift_down (a : float array) i size =
  let l = (2 * i) + 1 in
  if l < size then begin
    let m = if l + 1 < size && Float.compare a.(l + 1) a.(l) > 0 then l + 1 else l in
    if Float.compare a.(m) a.(i) > 0 then begin
      let x = a.(i) in
      a.(i) <- a.(m);
      a.(m) <- x;
      sift_down a m size
    end
  end

let sort_floats (a : float array) =
  let n = Array.length a in
  for i = (n / 2) - 1 downto 0 do
    sift_down a i n
  done;
  for last = n - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- x;
    sift_down a 0 last
  done

(* The benefit's sums add their terms in ascending order, from [0.0]: a
   benefit is then a function of its terms alone, not of the order of the
   workload's statements or of the configuration's members, so a permuted
   workload gets a bit-identical benefit. *)
let canonical_sum terms =
  sort_floats terms;
  let total = ref 0.0 in
  for k = 0 to Array.length terms - 1 do
    total := !total +. terms.(k)
  done;
  !total

(* Cost of the whole workload with no indexes, a {!canonical_sum}. *)
let base_workload_cost t =
  let terms = Array.make (Array.length t.base_costs) 0.0 in
  for i = 0 to Array.length terms - 1 do
    terms.(i) <- t.weights.(i) *. t.base_costs.(i)
  done;
  canonical_sum terms

(* A candidate's index statistics, derived from its table's statistics at
   the evaluator's creation. *)
let stats t (c : Candidate.t) =
  let table = c.def.Xia_index.Index_def.table in
  match List.assoc_opt table t.table_stats with
  | Some tstats -> Index_stats.derive_cached tstats c.def
  | None -> invalid_arg (Printf.sprintf "Benefit: unknown table %s" table)

(* Maintenance charge of a configuration: for every DML statement, every
   index of the configuration on the statement's table pays mc. *)
let maintenance_charge t (config : Candidate.t list) =
  let terms = ref [] in
  Array.iter
    (fun (i, tables) ->
      List.iter
        (fun (c : Candidate.t) ->
          if List.mem c.def.Xia_index.Index_def.table tables then begin
            terms :=
              (t.weights.(i) *. Maintenance.cost (stats t c) ~docs_affected:t.base_affected.(i))
              :: !terms
          end)
        config)
    t.dml;
  canonical_sum (Array.of_list !terms)

(* Fingerprint of a sub-configuration: the sorted array of its members'
   interned logical ids.  Equal configurations (up to order and index names)
   get equal fingerprints; no string is built or hashed.  [Array.sort]'s
   heap sort allocates an exception for some sift-downs, how many depends
   on the ids' relative order, and that order is the order in which the
   process first interned each definition; the merge sort's allocation
   depends on the length alone. *)
let sorted_ids arr =
  Array.stable_sort compare arr;
  arr

let fingerprint (sub : Candidate.t list) =
  sorted_ids (Array.of_list (List.map (fun (c : Candidate.t) -> c.def.lid) sub))

(* Per-statement what-if costs of [stmts] (indices into the workload, in the
   caller's order) under the configuration fingerprinted by [key], through
   the sub-configuration cache.

   - Fully covered request: one cache hit, no planning.
   - Uncovered statements: ONE [Optimizer.optimize_costs] invocation costs
     all of them under the entry's pinned [e_defs] ([defs] when the entry is
     fresh), and the entry is published with the new costs.
   - A failed evaluation publishes nothing and counts no evaluation: a later
     request for the key recomputes and raises again.  A failed EXTENSION
     leaves the existing entry's costs as they were. *)
let config_costs t ~defs key stmts =
  let read entry = List.map (Hashtbl.find entry.e_costs) stmts in
  match Hashtbl.find_opt t.cache key with
  | Some entry when List.for_all (Hashtbl.mem entry.e_costs) stmts ->
      count_hit t;
      read entry
  | prior ->
      count "benefit.cache_misses" 1;
      let entry =
        match prior with Some entry -> entry | None -> { e_defs = defs; e_costs = Hashtbl.create 16 }
      in
      let missing = List.filter (fun i -> not (Hashtbl.mem entry.e_costs i)) stmts in
      if missing <> [] then begin
        let costs =
          Optimizer.optimize_costs ~virtual_config:entry.e_defs
            (Array.of_list (List.map (fun i -> t.prepared.(i)) missing))
        in
        List.iteri (fun k i -> Hashtbl.replace entry.e_costs i costs.(k)) missing;
        count_evaluations t 1
      end;
      Hashtbl.replace t.cache key entry;
      read entry

(* Cost of the whole workload under a configuration (one batched Evaluate
   pass over every statement; captures all interactions).  Used for final
   reporting, and routed through the fingerprint cache: reporting twice over
   the same configuration — or over a configuration whose fingerprint a
   search already evaluated in full — skips planning entirely.  The defs
   are planned in logical-identity order and the statement terms summed
   with {!canonical_sum}, so a permuted workload or configuration reports
   a bit-identical cost. *)
let workload_cost t (config : Candidate.t list) =
  Xia_obs.Trace.with_span "benefit.workload_cost"
    ~args:(fun () ->
      [
        ("config", string_of_int (List.length config));
        ("statements", string_of_int (Array.length t.items));
      ])
  @@ fun () ->
  if Array.length t.items = 0 then 0.0
  else begin
    let defs = Array.of_list (List.map (fun c -> c.Candidate.def) config) in
    Array.sort Xia_index.Index_def.compare_logical defs;
    let costs = config_costs t ~defs:(Array.to_list defs) (fingerprint config) t.all_stmts in
    let terms = Array.make (Array.length t.items) 0.0 in
    List.iteri (fun i cost -> terms.(i) <- t.weights.(i) *. cost) costs;
    canonical_sum terms
  end

(* Cost-delta term of one sub-configuration: Σ freq·(s_old − s_new) over its
   affected statements ([affected], sorted), a {!canonical_sum}.  The
   per-statement costs come from {!config_costs} — one batched optimizer
   invocation on a cache miss, pure lookup on a hit. *)
let sub_config_delta t (sub : Candidate.t list) affected =
  let stmts = Array.to_list affected in
  (* An evaluator is always paired with the candidate set derived from its
     own workload, so every affected index must land inside it.  One outside
     means the caller mixed a stale candidate set with a different workload;
     silently dropping such indices (as this code once did) would undercount
     the delta — fail loudly instead. *)
  List.iter
    (fun i ->
      if i < 0 || i >= Array.length t.items then
        invalid_arg
          (Printf.sprintf
             "Benefit.sub_config_delta: affected statement index %d outside \
              the %d-statement workload (stale candidate set?)"
             i (Array.length t.items)))
    stmts;
  let defs = List.map (fun c -> c.Candidate.def) sub in
  Xia_obs.Trace.with_span "benefit.sub_config_delta"
    ~args:(fun () ->
      [
        ("indexes", string_of_int (List.length sub));
        ("statements", string_of_int (List.length stmts));
      ])
  @@ fun () ->
  let costs = config_costs t ~defs (fingerprint sub) stmts in
  let terms = Array.make (Array.length affected) 0.0 in
  List.iteri
    (fun k cost_new ->
      let i = affected.(k) in
      terms.(k) <- t.weights.(i) *. (t.base_costs.(i) -. cost_new))
    costs;
  canonical_sum terms

(* A configuration, partitioned into sub-configurations ("groups") of
   candidates with overlapping affected sets: candidates in different groups
   cannot interact, so each group's cost delta is computed once, when the
   group forms, and carried by every configuration extended from this one.

   Two orders make the result bit-identical to partitioning the whole list
   from scratch:

   - groups are kept in first-member order (the order of their first member
     in the list); {!value} sums their deltas canonically, in any order;
   - a group lists its members in reverse list order.  That list is the
     defs list its fingerprint's cache entry pins on first compute, and the
     planner keeps the FIRST index on an exact cost tie.

   Members carry a stamp that grows with each prepend, so reverse list order
   is increasing stamp order and merging groups is a merge of sorted
   lists. *)
type group = {
  g_members : (int * Candidate.t) list;  (* (stamp, candidate), stamps increasing *)
  g_affected : int array;                (* sorted union of the members' affected sets *)
  g_delta : float;
}

type config = {
  c_members : Candidate.t list;  (* list order: the newest member first *)
  c_ids : Int_set.t;             (* the members' candidate ids *)
  c_groups : group list;         (* first-member order *)
  c_next : int;                  (* stamp of the next member *)
}

let empty = { c_members = []; c_ids = Int_set.empty; c_groups = []; c_next = 0 }
let members cfg = cfg.c_members
let groups cfg = List.map (fun g -> List.map snd g.g_members) cfg.c_groups

(* A group while [extend] runs: carried over with its delta, or formed by
   this extension and still to be evaluated. *)
type slot =
  | Carried of group
  | Fresh of (int * Candidate.t) list * int array

let slot_members = function Carried g -> g.g_members | Fresh (m, _) -> m
let slot_affected = function Carried g -> g.g_affected | Fresh (_, a) -> a

(* Union of two sorted, duplicate-free arrays. *)
let union_sorted a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make (la + lb) 0 in
  let rec go i j k =
    if i = la && j = lb then Array.sub out 0 k
    else if j = lb || (i < la && a.(i) < b.(j)) then (out.(k) <- a.(i); go (i + 1) j (k + 1))
    else if i = la || b.(j) < a.(i) then (out.(k) <- b.(j); go i (j + 1) (k + 1))
    else (out.(k) <- a.(i); go (i + 1) (j + 1) (k + 1))
  in
  go 0 0 0

let by_stamp (a, _) (b, _) = Int.compare a b

(* Prepend one candidate: every group it overlaps merges with it into one
   fresh group, which goes first (its first member is the new head); the
   other groups keep their order.  A candidate already in the configuration
   is skipped: listing it twice would install the same virtual index twice
   and charge its maintenance twice. *)
let prepend ((slots, cfg) as acc) (c : Candidate.t) =
  if Int_set.mem c.id cfg.c_ids then acc
  else begin
    let next = cfg.c_next in
    let affected = Candidate.affected_array c in
    let joined, rest =
      List.partition (fun s -> Candidate.overlap affected (slot_affected s)) slots
    in
    let members =
      List.fold_left (fun acc s -> List.merge by_stamp acc (slot_members s)) [] joined
      @ [ (next, c) ]
    in
    let affected =
      List.fold_left (fun acc s -> union_sorted acc (slot_affected s)) affected joined
    in
    ( Fresh (members, affected) :: rest,
      {
        cfg with
        c_members = c :: cfg.c_members;
        c_ids = Int_set.add c.id cfg.c_ids;
        c_next = next + 1;
      } )
  end

(* The configuration [xs @ members cfg], less the candidates already in it.
   Only the groups this extension forms are evaluated, in group order; the
   others keep their deltas. *)
let extend t cfg xs =
  match xs with
  | [] -> cfg
  | _ ->
      let slots, cfg =
        List.fold_left prepend
          (List.map (fun g -> Carried g) cfg.c_groups, cfg)
          (List.rev xs)
      in
      let fresh =
        Array.of_list
          (List.filter_map
             (function Fresh (m, a) -> Some (m, a) | Carried _ -> None)
             slots)
      in
      let deltas =
        Array.map
          (fun (m, a) -> sub_config_delta t (List.map snd m) a)
          fresh
      in
      let k = ref 0 in
      let c_groups =
        List.map
          (function
            | Carried g -> g
            | Fresh (g_members, g_affected) ->
                let g_delta = deltas.(!k) in
                incr k;
                { g_members; g_affected; g_delta })
          slots
      in
      { cfg with c_groups }

(* The paper's Benefit(x1..xn; W): the group deltas summed, minus the
   configuration's maintenance charge. *)
let value t cfg =
  match cfg.c_members with
  | [] -> 0.0
  | members ->
      let deltas = Array.make (List.length cfg.c_groups) 0.0 in
      List.iteri (fun k g -> deltas.(k) <- g.g_delta) cfg.c_groups;
      canonical_sum deltas -. maintenance_charge t members

let benefit t (config : Candidate.t list) = value t (extend t empty config)

(* Individual benefit of a single candidate, memoized through the
   sub-configuration cache (a singleton is its own sub-configuration). *)
let individual_benefit t c = benefit t [ c ]

(* Derived candidate size, memoized per candidate id: the search algorithms
   read sizes inside every density sort and knapsack round, and the
   derivation walk is far from free. *)
let size t c = (stats t c).Index_stats.size_bytes

let candidate_size t (c : Candidate.t) =
  Xia_xpath.Interner.Cache.find_or_compute t.size_memo c.Candidate.id size t c

let config_size t (config : Candidate.t list) =
  List.fold_left (fun acc c -> acc + candidate_size t c) 0 config

(* ---------- the pre-passes' access index ---------- *)

(* Built once per evaluator, on the first pre-pass; the same pairing
   assumption as the memos. *)
let access_index t (set : Candidate.set) =
  match t.access_memo with
  | Some ix -> ix
  | None ->
      let ix =
        { set; keys = Array.map Optimizer.access_keys t.prepared; serving = [| None; None |] }
      in
      t.access_memo <- Some ix;
      ix

(* Access key -> the candidates of [origin] serving it: each distinct key
   matched against each candidate of [origin] once. *)
let serving t ix (origin : Candidate.origin) =
  let slot = match origin with Candidate.Basic -> 0 | Candidate.General -> 1 in
  match ix.serving.(slot) with
  | Some table -> table
  | None ->
      let count = Candidate.cardinality ix.set in
      let table = Hashtbl.create 16 in
      let buf = Array.make count 0 in
      Array.iter
        (Array.iter (fun key ->
             if not (Hashtbl.mem table key) then begin
               let m = ref 0 in
               for id = 0 to count - 1 do
                 let c = Candidate.get ix.set id in
                 if c.origin = origin then begin
                   t.match_tests <- t.match_tests + 1;
                   if Optimizer.key_matches c.def key then begin
                     buf.(!m) <- id;
                     incr m
                   end
                 end
               done;
               Hashtbl.replace table key (Array.sub buf 0 !m)
             end))
        ix.keys;
      ix.serving.(slot) <- Some table;
      table

(* Does every candidate [table] lists for one of [keys] (from [k] on, from
   its [j]th on) affect statement [i]?  If so, none of them can enter the
   statement's plan from outside its affected candidates. *)
let rec keys_affect ix table keys i k j =
  k >= Array.length keys
  ||
  let ids = Hashtbl.find table keys.(k) in
  if j >= Array.length ids then keys_affect ix table keys i (k + 1) 0
  else
    Int_set.mem i (Candidate.get ix.set ids.(j)).affected
    && keys_affect ix table keys i k (j + 1)

(* The definitions of the candidates with [config]'s ids, in order, and
   their {!fingerprint}. *)
let rec defs_at ix config k =
  if k = Array.length config then []
  else (Candidate.get ix.set config.(k)).def :: defs_at ix config (k + 1)

let fingerprint_at ix config =
  let lids = Array.make (Array.length config) 0 in
  for k = 0 to Array.length config - 1 do
    lids.(k) <- (Candidate.get ix.set config.(k)).def.lid
  done;
  sorted_ids lids

(* Statement -> the ids of the candidates affecting it, ascending: the
   affected sets inverted.  Affected indices outside the workload belong
   to a stale candidate set: no statement here has them, as no
   statement's [Int_set.mem] did. *)
let affecting t ix =
  let n = Array.length t.prepared and count = Candidate.cardinality ix.set in
  let counts = Array.make n 0 in
  let bump i = if i >= 0 && i < n then counts.(i) <- counts.(i) + 1 in
  for id = 0 to count - 1 do
    Int_set.iter bump (Candidate.get ix.set id).affected
  done;
  let rows = Array.map (fun k -> Array.make k 0) counts in
  Array.fill counts 0 n 0;
  let id = ref 0 in
  let place i =
    if i >= 0 && i < n then begin
      rows.(i).(counts.(i)) <- !id;
      counts.(i) <- counts.(i) + 1
    end
  in
  for c = 0 to count - 1 do
    id := c;
    Int_set.iter place (Candidate.get ix.set c).affected
  done;
  rows

(* The candidates that could apply to statement [i], ascending: those
   affecting it ([affecting]) and those serving one of its keys.  Without
   cross-coverage, [affecting] itself. *)
let applicable t ix affecting i =
  let basic = serving t ix Candidate.Basic and general = serving t ix Candidate.General in
  let keys = ix.keys.(i) in
  if keys_affect ix basic keys i 0 0 && keys_affect ix general keys i 0 0 then affecting
  else begin
    let mark = Array.make (Candidate.cardinality ix.set) false in
    let add id = mark.(id) <- true in
    Array.iter add affecting;
    Array.iter
      (fun key ->
        Array.iter add (Hashtbl.find basic key);
        Array.iter add (Hashtbl.find general key))
      keys;
    let members = ref [] in
    for id = Array.length mark - 1 downto 0 do
      if mark.(id) then members := id :: !members
    done;
    Array.of_list !members
  end

(* Per-statement cost FLOORS: statement i's what-if cost under the
   configuration of EVERY candidate that could possibly apply to it — the
   candidates affecting i plus any candidate whose definition matches one of
   i's indexable accesses (cross-coverage: an index can enter a plan of a
   statement outside its affected set once installed alongside others, so
   basics-of-i alone would NOT be a sound floor configuration).  Any real
   configuration's applicable subset for i is contained in that set, the
   planner's cost is monotone non-increasing in the applicable options, and
   the doc-scan fallback is always available, so

       floor_i <= cost_i(config) <= base_i   for every configuration.

   Statements no candidate can touch keep their base cost as the floor.
   The applicable sets come from the affected sets, inverted, and the
   access index.  Grouped by configuration: one batched evaluation per distinct group, in
   first-occurrence order, routed through the sub-configuration cache (so a
   group whose fingerprint a search later evaluates in full is already paid
   for).  Memoized per evaluator. *)
let bounds t (set : Candidate.set) =
  match t.floors_memo with
  | Some b -> b
  | None ->
      Xia_obs.Trace.with_span "benefit.floors"
        ~args:(fun () ->
          [ ("statements", string_of_int (Array.length t.items)) ])
      @@ fun () ->
      let ix = access_index t set in
      let fl = Array.copy t.base_costs in
      let groups = Hashtbl.create 32 in
      let order = ref [] in  (* configurations, reverse first-occurrence order *)
      let rows = affecting t ix in
      for i = 0 to Array.length t.prepared - 1 do
        let config = applicable t ix rows.(i) i in
        if Array.length config > 0 then begin
          match Hashtbl.find groups config with
          | idxs -> idxs := i :: !idxs
          | exception Not_found ->
              order := config :: !order;
              Hashtbl.replace groups config (ref [ i ])
        end
      done;
      List.iter
        (fun config ->
          let stmts = List.rev !(Hashtbl.find groups config) in
          let costs = config_costs t ~defs:(defs_at ix config 0) (fingerprint_at ix config) stmts in
          List.iter2 (fun i c -> fl.(i) <- c) stmts costs)
        (List.rev !order);
      let gaps = Array.mapi (fun i f -> t.weights.(i) *. (t.base_costs.(i) -. f)) fl in
      t.floors_memo <- Some (fl, gaps);
      (fl, gaps)

let floors t set = fst (bounds t set)

(* Atomic-benefit upper bound of one candidate:

       aub(c) = Σ_{i ∈ affected(c)} weight_i · (base_i − floor_i)

   Every configuration containing c has per-statement costs >= floor_i, so
   the cost-delta term of ANY evaluation of c — including its individual
   benefit's — is dominated by aub(c); the maintenance charge only
   subtracts.  Hence individual_benefit c <= aub(c) always.

   Sharper: aub(c) = 0 means base_i = floor_i for every affected statement
   (each term is weight·(base − floor) with weight >= 0 and base >= floor,
   so a zero sum forces every term to zero).  The individual-benefit delta
   then folds to exactly +0.0 — each term is either w ·. (x −. x) = +0.0 or
   0.0 ·. nonneg = +0.0, and +0.0 +. +0.0 = +0.0 — so

       individual_benefit c  =  0.0 -. maintenance_charge t [c]   (bitwise)

   which the pruned search paths substitute without an optimizer call. *)
let sum_gaps gaps (c : Candidate.t) =
  Int_set.fold (fun i acc -> acc +. gaps.(i)) c.Candidate.affected 0.0

let atomic_upper_bound t (set : Candidate.set) (c : Candidate.t) =
  Xia_xpath.Interner.Cache.find_or_compute t.aub_memo c.Candidate.id sum_gaps
    (snd (bounds t set)) c

(* Candidates used by at least one optimizer plan when every basic candidate
   of a statement is installed together.  This captures indexes whose value
   only shows in combination (index ANDing): their individual benefit can be
   zero, yet the optimizer picks them alongside a partner.  The paper's
   preprocessing criterion — drop indexes "not being used in optimizer
   plans" — is exactly this check.

   Batched: ONE optimizer invocation plans — under the union of ALL basic
   defs — every statement for which that is provably the same plan as under
   its own basics.  An index only enters a plan by matching an access, so
   the plans coincide exactly when every basic MATCHING one of the
   statement's accesses also AFFECTS it: the filtered applicable lists are
   then literally equal, element order included (both filter the same
   basics-ordered defs list), so no cost or tie-break can differ.  The
   basics matching each access key come from the access index, and whether
   they affect the statement from their affected sets.
   Statements with cross-coverage — some basic matches an access without
   affecting them, so the union would let a foreign index into their plan —
   fall back to batches over their exact configuration, grouped by
   configuration in first-occurrence order. *)
let compute_used_in_plans t (set : Candidate.set) =
  let ix = access_index t set in
  let basic = serving t ix Candidate.Basic in
  let basics = Candidate.basics set in
  let n = Array.length t.prepared in
  (* The statements some basic affects.  Affected indices outside the
     workload belong to a stale candidate set. *)
  let touched = Array.make n false in
  let touch i = if i >= 0 && i < n then touched.(i) <- true in
  List.iter (fun (c : Candidate.t) -> Int_set.iter touch c.affected) basics;
  let union_ok = ref [] in          (* statement indices, reverse order *)
  let groups = Hashtbl.create 16 in (* configuration -> statement indices, reverse order *)
  let order = ref [] in             (* configurations, reverse first-occurrence order *)
  for i = 0 to n - 1 do
    if touched.(i) then begin
      if keys_affect ix basic ix.keys.(i) i 0 0 then union_ok := i :: !union_ok
      else begin
        (* the statement's own basics, by id *)
        let config =
          Array.of_list
            (List.filter_map
               (fun (c : Candidate.t) -> if Int_set.mem i c.affected then Some c.id else None)
               basics)
        in
        match Hashtbl.find groups config with
        | idxs -> idxs := i :: !idxs
        | exception Not_found ->
            order := config :: !order;
            Hashtbl.replace groups config (ref [ i ])
      end
    end
  done;
  let used = Hashtbl.create 32 in
  let batches = ref 0 in
  let plan_group defs idxs =
    let plans =
      Optimizer.optimize_prepared ~virtual_config:defs
        (Array.of_list (List.map (fun i -> t.prepared.(i)) idxs))
    in
    incr batches;
    Array.iter
      (fun plan ->
        List.iter
          (fun (d : Xia_index.Index_def.t) -> Hashtbl.replace used d.lid ())
          (Plan.indexes_used plan))
      plans
  in
  (match List.rev !union_ok with
  | [] -> ()
  | idxs -> plan_group (List.map (fun (c : Candidate.t) -> c.Candidate.def) basics) idxs);
  List.iter
    (fun config -> plan_group (defs_at ix config 0) (List.rev !(Hashtbl.find groups config)))
    (List.rev !order);
  count_evaluations t !batches;
  used

let used_in_plans t (set : Candidate.set) =
  match t.used_memo with
  | Some used -> used
  | None ->
      let used = compute_used_in_plans t set in
      t.used_memo <- Some used;
      used

(* Is this candidate worth keeping in a search space?  Positive individual
   benefit, or used by some plan in combination.

   Plan-used candidates are kept regardless of their probe result (the
   disjunction short-circuits), so their probes are skipped outright — an
   exact optimization, not a heuristic.  Under [prune], candidates with a
   non-positive upper bound are skipped too: their individual benefit is at
   most 0.0 -. maintenance_charge (never > 0), so only plan-usage could keep
   them, and that was already checked.  Either way the result SET is
   identical to probing everything; only the optimizer-call count drops. *)
let useful_ids ?(prune = false) t set =
  match t.useful_memo with
  | Some ids -> ids
  | None ->
      let used = used_in_plans t set in
      let ids = Hashtbl.create 64 in
      let probe =
        List.filter
          (fun (c : Candidate.t) ->
            if Hashtbl.mem used c.def.lid then begin
              Hashtbl.replace ids c.Candidate.id ();
              false
            end
            else if prune && atomic_upper_bound t set c <= 0.0 then begin
              count_pruned t 1;
              false
            end
            else true)
          (Candidate.to_list set)
      in
      List.iter
        (fun (c : Candidate.t) ->
          if individual_benefit t c > 0.0 then Hashtbl.replace ids c.Candidate.id ())
        probe;
      t.useful_memo <- Some ids;
      ids
