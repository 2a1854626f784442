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
   statements are bound to the statistics the evaluator was created over —
   like [base_costs] and the sub-configuration cache.  What-if calls pass
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

type t = {
  catalog : [ `Read ] Catalog.t;
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
let of_summary ?domains:_ catalog summary =
  let catalog = Catalog.read_only catalog in
  let items = Array.of_list (Workload_summary.workload summary) in
  (* Collect missing or stale statistics for every table up front: every
     later evaluation plans against the statistics the prepared statements
     bound here. *)
  Catalog.warm_stats catalog;
  let prepared =
    Array.map (fun (item : Workload.item) -> Optimizer.prepare catalog item.statement) items
  in
  let base_costs =
    Optimizer.optimize_costs ~mode:Optimizer.Evaluate ~virtual_config:[] catalog prepared
  in
  {
    catalog;
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
  }

let create catalog (workload : Workload.t) = of_summary catalog (Workload_summary.raw workload)

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

(* Maintenance charge of a configuration: for every DML statement, every
   index of the configuration on the statement's table pays mc. *)
let maintenance_charge t (config : Candidate.t list) =
  let terms = ref [] in
  Array.iter
    (fun (i, tables) ->
      List.iter
        (fun (c : Candidate.t) ->
          if List.mem c.def.Xia_index.Index_def.table tables then begin
            let stats = Candidate.stats t.catalog c in
            terms :=
              (t.weights.(i) *. Maintenance.cost stats ~docs_affected:t.base_affected.(i))
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
let fingerprint (sub : Candidate.t list) =
  let arr = Array.of_list (List.map (fun (c : Candidate.t) -> c.def.lid) sub) in
  Array.stable_sort compare arr;
  arr

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
          Optimizer.optimize_costs ~mode:Optimizer.Evaluate ~virtual_config:entry.e_defs
            t.catalog
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
   recompute catalog-derived sizes inside every density sort and knapsack
   round, and the derivation walk is far from free. *)
let candidate_size t (c : Candidate.t) =
  Xia_xpath.Interner.Cache.find_or_compute t.size_memo c.Candidate.id Candidate.size
    t.catalog c

let config_size t (config : Candidate.t list) =
  List.fold_left (fun acc c -> acc + candidate_size t c) 0 config

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
   Grouped by configuration fingerprint: one batched evaluation per distinct
   group, routed through the sub-configuration cache (so a group whose
   fingerprint a search later evaluates in full is already paid for).
   Memoized per evaluator. *)
let bounds t (set : Candidate.set) =
  match t.floors_memo with
  | Some b -> b
  | None ->
      Xia_obs.Trace.with_span "benefit.floors"
        ~args:(fun () ->
          [ ("statements", string_of_int (Array.length t.items)) ])
      @@ fun () ->
      let cands = Candidate.to_list set in
      let fl = Array.copy t.base_costs in
      let groups = Hashtbl.create 32 in
      let order = ref [] in  (* fingerprints, reverse first-occurrence order *)
      Array.iteri
        (fun i p ->
          let cfg =
            List.filter
              (fun (c : Candidate.t) ->
                Int_set.mem i c.affected || Optimizer.serves p c.def)
              cands
          in
          if cfg <> [] then begin
            let key = fingerprint cfg in
            match Hashtbl.find_opt groups key with
            | Some (_, idxs) -> idxs := i :: !idxs
            | None ->
                order := key :: !order;
                let defs =
                  List.map (fun (c : Candidate.t) -> c.Candidate.def) cfg
                in
                Hashtbl.replace groups key (defs, ref [ i ])
          end)
        t.prepared;
      List.iter
        (fun key ->
          let defs, idxs = Hashtbl.find groups key in
          let stmts = List.rev !idxs in
          let costs = config_costs t ~defs key stmts in
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
   basics-ordered defs list), so no cost or tie-break can differ.
   Statements with cross-coverage — some basic matches an access without
   affecting them, so the union would let a foreign index into their plan —
   fall back to batches over their exact configuration, grouped by
   fingerprint. *)
let compute_used_in_plans t (set : Candidate.set) =
  let basics = Candidate.basics set in
  let all_defs = List.map (fun (c : Candidate.t) -> c.Candidate.def) basics in
  let union_ok = ref [] in          (* statement indices, reverse order *)
  let fallback = ref [] in          (* (fingerprint, defs, indices rev) *)
  Array.iteri
    (fun i p ->
      let config =
        List.filter (fun (c : Candidate.t) -> Int_set.mem i c.affected) basics
      in
      if config <> [] then begin
        let cross =
          List.exists
            (fun (c : Candidate.t) ->
              (not (Int_set.mem i c.affected)) && Optimizer.serves p c.def)
            basics
        in
        if not cross then union_ok := i :: !union_ok
        else begin
          let key = fingerprint config in
          match List.assoc_opt key !fallback with
          | Some (_, idxs) -> idxs := i :: !idxs
          | None ->
              let defs =
                List.map (fun (c : Candidate.t) -> c.Candidate.def) config
              in
              fallback := (key, (defs, ref [ i ])) :: !fallback
        end
      end)
    t.prepared;
  let used = Hashtbl.create 32 in
  let batches = ref 0 in
  let plan_group defs idxs =
    let plans =
      Optimizer.optimize_prepared ~mode:Optimizer.Evaluate ~virtual_config:defs t.catalog
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
  (match List.rev !union_ok with [] -> () | idxs -> plan_group all_defs idxs);
  (* [fallback] was built by prepending in statement order; restore it so the
     batch sequence — and with it every counter — is deterministic. *)
  List.iter
    (fun (_, (defs, idxs)) -> plan_group defs (List.rev !idxs))
    (List.rev !fallback);
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
      let cands = Array.of_list (Candidate.to_list set) in
      let ids = Hashtbl.create 64 in
      let probe =
        List.filter_map
          (fun (c : Candidate.t) ->
            if Hashtbl.mem used c.def.lid then begin
              Hashtbl.replace ids c.Candidate.id ();
              None
            end
            else if prune && atomic_upper_bound t set c <= 0.0 then begin
              count_pruned t 1;
              None
            end
            else Some c)
          (Array.to_list cands)
      in
      let rest = Array.of_list probe in
      let indiv = Array.map (individual_benefit t) rest in
      Array.iteri
        (fun i (c : Candidate.t) ->
          if indiv.(i) > 0.0 then Hashtbl.replace ids c.Candidate.id ())
        rest;
      t.useful_memo <- Some ids;
      ids
