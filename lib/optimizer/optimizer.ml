(* The cost-based query optimizer.

   Besides its normal duty (choosing plans over real indexes), it implements
   the two advisor modes the paper adds to DB2:

   - Enumerate Indexes: optimize the statement with a virtual universal index
     ("//*", and "//@*" for attributes) in place and report every query
     pattern the index-matching step matched against it;
   - Evaluate Indexes: cost the statement against a virtual-index
     configuration, passed with each call.

   All index statistics — virtual or real — are derived from data statistics,
   so estimated costs are consistent across modes. *)

module Catalog = Xia_index.Catalog
module Index_def = Xia_index.Index_def
module Index_stats = Xia_index.Index_stats
module Path_stats = Xia_storage.Path_stats
module C = Xia_storage.Cost_params
module Rewriter = Xia_query.Rewriter
module Ast = Xia_query.Ast
module Pattern = Xia_xpath.Pattern

type mode =
  | Normal    (* real indexes *)
  | Evaluate  (* virtual indexes: the advisor's Evaluate Indexes mode *)

(* [Atomic.t] only because the advisor benchmark reads the fields with
   [Atomic.get]; the advisor runs on one domain. *)
type counters = {
  optimize_calls : int Atomic.t;
  enumerate_calls : int Atomic.t;
  plans_considered : int Atomic.t;
  batch_setup_saved : int Atomic.t;
}

let counters =
  { optimize_calls = Atomic.make 0; enumerate_calls = Atomic.make 0;
    plans_considered = Atomic.make 0;
    batch_setup_saved = Atomic.make 0 }

let reset_counters () =
  Atomic.set counters.optimize_calls 0;
  Atomic.set counters.enumerate_calls 0;
  Atomic.set counters.plans_considered 0;
  Atomic.set counters.batch_setup_saved 0

(* Index matching: can this index serve this access, whose pattern id is
   [access_pid]?  Same table, same data type, and the index pattern covers
   the access pattern — asked of the coverage table by the two ids, so a
   known pair allocates nothing. *)
let matches (def : Index_def.t) (access : Rewriter.access) access_pid =
  String.equal def.table access.table
  && Index_def.equal_data_type def.dtype access.dtype
  && Pattern.covers_id ~general:def.pid ~specific:access_pid

let index_matches def (access : Rewriter.access) = matches def access (Pattern.id access.pattern)

let avg_doc_pages (tstats : Path_stats.t) =
  C.avg_doc_pages ~bytes:tstats.total_bytes ~docs:tstats.doc_count

let avg_doc_elements (tstats : Path_stats.t) =
  if tstats.doc_count = 0 then 0.0
  else float_of_int tstats.total_elements /. float_of_int tstats.doc_count

(* Cost of verifying one fetched document against the full binding. *)
let verify_cost_per_doc tstats nfilters =
  C.verify_cpu ~elements:(avg_doc_elements tstats) ~predicates:nfilters

(* Number of elementary predicate evaluations per document. *)
let predicate_count (info : Rewriter.binding_info) =
  List.length (List.concat info.filters)

(* Result-size estimate, independent of the access path. *)
let est_result_docs tstats (info : Rewriter.binding_info) =
  float_of_int tstats.Path_stats.doc_count
  *. Selectivity.combined_doc_fraction tstats info.filters

(* ---------- prepared statements ----------

   Planning splits in two.  [prepare] runs once per statement: it rewrites
   the statement and derives everything no index configuration can change.
   Planning a prepared statement then runs once per configuration and only
   matches indexes and adds up costs.  CoPhy's INUM builds a per-query plan
   template the same way and re-costs it per configuration. *)

(* One indexable access: its interned pattern id, and its ordinal among the
   statement's accesses (half of a probe's memo key). *)
type prepared_access = {
  access : Rewriter.access;
  pid : int;
  slot : int;
}

(* One binding's configuration-independent numbers. *)
type prepared_binding = {
  info : Rewriter.binding_info;
  tstats : Path_stats.t;
  est_docs : float;
  result_cpu : float;
  scan_cost : float;      (* the document scan, result CPU included *)
  docs_cap : float;       (* documents, at least one *)
  fetch_per_doc : float;  (* fetching and verifying one document *)
  filters : prepared_access array array;  (* conjunction of disjunctions *)
  pairs : bool;           (* two or more one-access filters: AND pairs exist *)
}

(* How a statement's total cost follows from its bindings' costs. *)
type tail =
  | Select_tail                  (* their sum *)
  | Insert_tail of float         (* none: this fixed cost *)
  | Modify_tail of float         (* their sum, plus this per modified document *)

(* The configuration-independent costs of one index scan: the lookup, the
   documents it fetches and the RID comparisons of an AND.  All floats, so
   stored flat. *)
type parts = C.index_scan = {
  lookup : float;
  docs_fetched : float;
  rid_cpu : float;
}

(* One memoized (access, index) pair: its key (see [prepared]), the index's
   derived statistics and its scan parts. *)
type probe = {
  key : int;
  stats : Index_stats.t;
  parts : parts;
}

type prepared = {
  statement : Ast.statement;
  bindings : prepared_binding array;
  index_cost_factor : float;  (* scales every index-plan cost; see [prepare] *)
  slots : int;
  tail : tail;
  affected : float;  (* DML only: documents the statement modifies; no index changes it *)
  mutable probes : probe list;
      (* the memo: keyed by index logical id × [slots] + access slot,
         matching pairs only.  An entry is a pure function of its key and
         the statistics bound here.  A list, not a map: a statement has a few
         matching pairs, and every statement of an evaluator keeps its memo
         for the evaluator's life. *)
}

(* Documents a DML statement modifies, from the estimates of its locating
   binding(s).  Every binding constrains the same documents, so with
   several the statement touches at most the most selective one's
   estimate: fold with [min].  (A previous version matched
   [ [ b ] -> b.est_docs | _ -> 0.0 ], silently zeroing the modification
   cost of any multi-binding statement.) *)
let min_docs = function
  | [] -> 0.0
  | docs -> List.fold_left Float.min infinity docs

(* [index_cost_factor] is the eval harness's cost-model perturbation
   (lib/eval): at the default 1.0 the multiplication is a bitwise no-op
   (x *. 1.0 = x), and a large factor makes every index plan lose to the
   document scan.  It perturbs only the statements prepared with it. *)
let prepare ?(index_cost_factor = 1.0) catalog (stmt : Ast.statement) =
  let next = ref 0 in
  let prepare_access (access : Rewriter.access) =
    let slot = !next in
    incr next;
    { access; pid = Pattern.id access.pattern; slot }
  in
  let prepare_binding (info : Rewriter.binding_info) =
    let table = info.Rewriter.source.Ast.table in
    let tstats = Catalog.stats catalog table in
    let est_docs = est_result_docs tstats info in
    let result_cpu = C.result_cpu est_docs in
    let verify = verify_cost_per_doc tstats (predicate_count info) in
    let filters =
      Array.of_list (List.map (fun f -> Array.of_list (List.map prepare_access f)) info.filters)
    in
    {
      info;
      tstats;
      est_docs;
      result_cpu;
      scan_cost =
        C.doc_scan
          ~pages:(Catalog.pages catalog table)
          ~docs:tstats.Path_stats.doc_count ~verify
        +. result_cpu;
      docs_cap = Float.max 1.0 (float_of_int tstats.Path_stats.doc_count);
      fetch_per_doc = C.fetch ~pages:(avg_doc_pages tstats) ~verify;
      filters;
      pairs =
        Array.fold_left (fun n f -> if Array.length f = 1 then n + 1 else n) 0 filters >= 2;
    }
  in
  let bindings = List.map prepare_binding (Rewriter.bindings_of_statement stmt) in
  let modify table ~factor =
    let tstats = Catalog.stats catalog table in
    Modify_tail
      (C.modify_cost ~pages:(avg_doc_pages tstats) ~elements:(avg_doc_elements tstats) ~factor)
  in
  let tail =
    match stmt with
    | Ast.Select _ -> Select_tail
    | Ast.Insert { document; _ } ->
        Insert_tail
          (C.insert_cost ~bytes:(Xia_xml.Types.byte_size document)
             ~elements:(Xia_xml.Types.count_elements document))
    | Ast.Delete { table; _ } -> modify table ~factor:1.0
    | Ast.Update { table; _ } -> modify table ~factor:2.0
  in
  {
    statement = stmt;
    bindings = Array.of_list bindings;
    index_cost_factor;
    slots = !next;
    tail;
    affected =
      (match tail with
      | Select_tail -> 0.0
      | Insert_tail _ -> 1.0
      | Modify_tail _ -> min_docs (List.map (fun b -> b.est_docs) bindings));
    probes = [];
  }

let affected_docs p = p.affected

(* A statement's total from its bindings' summed costs. *)
let[@inline] statement_total p locate =
  match p.tail with
  | Select_tail -> locate
  | Insert_tail cost -> cost
  | Modify_tail per_doc -> locate +. (p.affected *. per_doc)

(* [index_matches] for a prepared access. *)
let serves_access def (pa : prepared_access) = matches def pa.access pa.pid

(* An access's key is the logical id of the index on exactly its table,
   type and pattern, so which indexes serve an access depends on its key
   alone, and a caller matching many statements matches each distinct key
   once.  Interned on request, not by [prepare]: planning never reads a
   key, so per-statement planning does not pay for them. *)
let access_keys p =
  let keys = Array.make p.slots 0 and n = ref 0 in
  for k = 0 to Array.length p.bindings - 1 do
    let filters = p.bindings.(k).filters in
    for f = 0 to Array.length filters - 1 do
      for d = 0 to Array.length filters.(f) - 1 do
        let pa = filters.(f).(d) in
        let key =
          Index_def.key_id ~table:pa.access.Rewriter.table ~dtype:pa.access.dtype ~pid:pa.pid
        in
        let seen = ref false in
        for j = 0 to !n - 1 do
          if keys.(j) = key then seen := true
        done;
        if not !seen then begin
          keys.(!n) <- key;
          incr n
        end
      done
    done
  done;
  if !n = p.slots then keys else Array.sub keys 0 !n

let key_matches def key = Index_def.covers_id ~general:def key

let scan_parts tstats (s : Index_stats.t) (def : Index_def.t) (pa : prepared_access) =
  if s.Index_stats.entries = 0 then { lookup = 0.0; docs_fetched = 0.0; rid_cpu = 0.0 }
  else
    C.index_scan ~levels:s.Index_stats.levels ~leaf_pages:s.Index_stats.leaf_pages
      ~entries:s.Index_stats.entries
      (Selectivity.lookup_estimate ~query:pa.pid tstats def.pid def.dtype
         pa.access.Rewriter.condition)

(* What [find_probe] returns for an absent key (keys are never negative),
   so a lookup allocates nothing. *)
let absent =
  { key = -1; stats = Index_stats.empty; parts = { lookup = 0.0; docs_fetched = 0.0; rid_cpu = 0.0 } }

let rec find_probe key = function
  | [] -> absent
  | pr :: rest -> if pr.key = key then pr else find_probe key rest

(* The memoized probe of index [def] for access [pa] of [p]; the pair must
   match. *)
let probe p (b : prepared_binding) (def : Index_def.t) (pa : prepared_access) =
  let key = (def.lid * p.slots) + pa.slot in
  let pr = find_probe key p.probes in
  if pr != absent then pr
  else begin
    let stats = Index_stats.derive_cached b.tstats def in
    let fresh = { key; stats; parts = scan_parts b.tstats stats def pa } in
    (* A memo of a pure function of the key and the bound statistics. *)
    p.probes <- fresh :: p.probes;
    fresh
  end

(* An index the planner may use, with whether it is virtual. *)
type visible = {
  def : Index_def.t;
  is_virtual : bool;
}

(* Every what-if call's latency, for the advisor's observability layer.
   Looked up by name at each instrumented call, so the metric only
   registers once one runs. *)
let optimize_latency () = Xia_obs.Metrics.histogram "optimizer.optimize_latency_us"

(* ---------- the planner ----------

   The cost model's four plan costs, each written once.  Inlined, so the
   walk below reads their floats unboxed. *)

(* A single index scan, from its probe's parts. *)
let[@inline] scan_cost p b (pr : parts) =
  (pr.lookup +. (pr.docs_fetched *. b.fetch_per_doc)) *. p.index_cost_factor

(* An index OR, from its disjuncts' summed lookups and fetched documents
   (their union, capped by the table). *)
let[@inline] or_cost p b ~lookups ~docs =
  (lookups +. (Float.min b.docs_cap docs *. b.fetch_per_doc)) *. p.index_cost_factor

(* A scan's fraction of the table's documents. *)
let[@inline] frac b (x : parts) = Float.min 1.0 (x.docs_fetched /. b.docs_cap)

(* An index AND of two scans: both lookups, a RID comparison per fetched
   entry, and the documents of the intersection under independence. *)
let[@inline] and_cost p b (x : parts) (y : parts) =
  let lookups = 0.0 +. x.lookup +. y.lookup in
  let rid_cpu = 0.0 +. x.rid_cpu +. y.rid_cpu in
  let inter_docs = b.docs_cap *. (1.0 *. frac b x *. frac b y) in
  (lookups +. rid_cpu +. (inter_docs *. b.fetch_per_doc)) *. p.index_cost_factor

(* The document scan's cost is fixed per binding: [scan_cost] of
   [prepared_binding], set by [prepare]. *)

(* Position in [vis] of the cheapest non-empty index serving [pa], or -1.
   Indexes are tried in order and the first wins a tie.  With [count],
   each costed index counts as a plan considered. *)
let best_index ~count p b (vis : visible array) pa =
  let best = ref (-1) and best_cost = ref 0.0 in
  for v = 0 to Array.length vis - 1 do
    let def = vis.(v).def in
    if serves_access def pa then begin
      let pr = probe p b def pa in
      if pr.stats.Index_stats.entries <> 0 then begin
        let cost = scan_cost p b pr.parts in
        if count then Atomic.incr counters.plans_considered;
        if !best < 0 || not (!best_cost <= cost) then begin
          best := v;
          best_cost := cost
        end
      end
    end
  done;
  !best

let parts_at p b (vis : visible array) v pa = (probe p b vis.(v).def pa).parts

let choice_at p b (vis : visible array) v pa =
  let { def; is_virtual } = vis.(v) in
  { Plan.def; stats = (probe p b def pa).stats; access = pa.access; is_virtual }

(* What a walk returns: the winner's cost, or the planned binding built
   from the winner. *)
type _ outcome =
  | Cost : float outcome
  | Planned : Plan.planned_binding outcome

type kind = Doc | Single | Or | And

(* Plan one prepared binding over [vis], the visible indexes of its table
   in tie-break order.  The candidates, in the order a strict [<] meets
   them: the document scan; per filter a single index scan (one access) or
   an index OR (one index per disjunct, every disjunct probed); then the
   AND of every pair of single-scan winners, in filter order.  The winner
   is kept as numbers — its kind, filter and index positions, and cost —
   and only [Planned] turns it into a [Plan.planned_binding]. *)
let walk : type r. r outcome -> prepared -> visible array -> prepared_binding -> r =
 fun outcome p vis b ->
  Atomic.incr counters.plans_considered;
  let nf = Array.length b.filters in
  let best = ref b.scan_cost and kind = ref Doc in
  let fi = ref 0 and fj = ref 0 and vi = ref 0 and vj = ref 0 in
  (* Each one-access filter's winning index, for the AND pairs. *)
  let wins = if b.pairs then Array.make nf (-1) else [||] in
  for f = 0 to nf - 1 do
    let filter = b.filters.(f) in
    let nd = Array.length filter in
    if nd = 1 then begin
      let v = best_index ~count:true p b vis filter.(0) in
      if v >= 0 then begin
        if b.pairs then wins.(f) <- v;
        let cost = scan_cost p b (parts_at p b vis v filter.(0)) +. b.result_cpu in
        if cost < !best then begin
          best := cost;
          kind := Single;
          fi := f;
          vi := v
        end
      end
    end
    else if nd > 1 then begin
      let served = ref true and lookups = ref 0.0 and docs = ref 0.0 in
      for d = 0 to nd - 1 do
        let v = best_index ~count:true p b vis filter.(d) in
        if v < 0 then served := false
        else if !served then begin
          let pr = parts_at p b vis v filter.(d) in
          lookups := !lookups +. pr.lookup;
          docs := !docs +. pr.docs_fetched
        end
      done;
      if !served then begin
        Atomic.incr counters.plans_considered;
        let cost = or_cost p b ~lookups:!lookups ~docs:!docs +. b.result_cpu in
        if cost < !best then begin
          best := cost;
          kind := Or;
          fi := f
        end
      end
    end
  done;
  if b.pairs then
    for i = 0 to nf - 2 do
      let v = wins.(i) in
      if v >= 0 then begin
        let x = parts_at p b vis v b.filters.(i).(0) in
        for j = i + 1 to nf - 1 do
          let w = wins.(j) in
          if w >= 0 then begin
            Atomic.incr counters.plans_considered;
            let y = parts_at p b vis w b.filters.(j).(0) in
            let cost = and_cost p b x y +. b.result_cpu in
            if cost < !best then begin
              best := cost;
              kind := And;
              fi := i;
              fj := j;
              vi := v;
              vj := w
            end
          end
        done
      end
    done;
  match outcome with
  | Cost -> !best
  | Planned ->
      let plan =
        match !kind with
        | Doc -> Plan.Doc_scan
        | Single -> Plan.Index_scan (choice_at p b vis !vi b.filters.(!fi).(0))
        | Or ->
            Plan.Index_or
              (List.map
                 (fun pa -> choice_at p b vis (best_index ~count:false p b vis pa) pa)
                 (Array.to_list b.filters.(!fi)))
        | And ->
            Plan.Index_and
              [
                choice_at p b vis !vi b.filters.(!fi).(0);
                choice_at p b vis !vj b.filters.(!fj).(0);
              ]
      in
      { Plan.info = b.info; plan; est_cost = !best; est_docs = b.est_docs }

(* One prepared statement's cost, [indexes_of table] listing the table's
   visible indexes: the bindings' winning costs, summed, and the tail. *)
let cost_prepared ~indexes_of p =
  let locate = ref 0.0 in
  for k = 0 to Array.length p.bindings - 1 do
    let b = p.bindings.(k) in
    locate := !locate +. walk Cost p (indexes_of b.info.Rewriter.source.Ast.table) b
  done;
  statement_total p !locate

(* The same walk, building each binding's plan. *)
let plan_prepared ~indexes_of p =
  let bindings =
    Array.to_list
      (Array.map
         (fun b -> walk Planned p (indexes_of b.info.Rewriter.source.Ast.table) b)
         p.bindings)
  in
  let locate = List.fold_left (fun acc b -> acc +. b.Plan.est_cost) 0.0 bindings in
  {
    Plan.statement = p.statement;
    bindings;
    total_cost = statement_total p locate;
  }

(* Batch setup: per table the prepared statements touch, its visible
   indexes, [of_table table]. *)
let visible_indexes of_table (prepared : prepared array) =
  let tables = ref [] in
  Array.iter
    (fun p ->
      Array.iter
        (fun b ->
          let table = b.info.Rewriter.source.Ast.table in
          if not (List.mem table !tables) then tables := table :: !tables)
        p.bindings)
    prepared;
  let by_table = List.map (fun t -> (t, of_table t)) !tables in
  fun table -> List.assoc table by_table

(* [Evaluate]: the table's indexes in [virtual_config], in its order, which
   is the tie-break order. *)
let virtual_indexes virtual_config table =
  Array.of_list
    (List.filter_map
       (fun (d : Index_def.t) ->
         if String.equal d.table table then Some { def = d; is_virtual = true } else None)
       virtual_config)

(* [Normal]: the table's materialized indexes, in catalog order. *)
let real_indexes catalog table =
  Array.of_list
    (List.map
       (fun pi -> { def = Xia_index.Physical_index.def pi; is_virtual = false })
       (Catalog.real_indexes catalog table))

(* One statement through [planner] ([plan_prepared] or [cost_prepared]),
   counted and timed as one optimizer invocation. *)
let optimize_one ?(mode = Evaluate) ~virtual_config catalog stmt planner =
  let run () =
    Atomic.incr counters.optimize_calls;
    let p = prepare catalog stmt in
    let of_table =
      match mode with
      | Normal -> real_indexes catalog
      | Evaluate -> virtual_indexes virtual_config
    in
    planner ~indexes_of:(visible_indexes of_table [| p |]) p
  in
  if not (Xia_obs.Obs.on ()) then run ()
  else begin
    let t0 = Xia_obs.Obs.now_s () in
    let result = run () in
    Xia_obs.Metrics.observe_s (optimize_latency ())
      (Xia_obs.Obs.now_s () -. t0);
    result
  end

let optimize ?mode ?(virtual_config = []) catalog stmt =
  optimize_one ?mode ~virtual_config catalog stmt plan_prepared

let statement_cost ?mode ?(virtual_config = []) catalog stmt =
  optimize_one ?mode ~virtual_config catalog stmt cost_prepared

(* Distribution of batch sizes, for the observability layer.  Unitless
   bounds: a sample is a statement count, not a latency. *)
let batch_size_hist () =
  Xia_obs.Metrics.histogram
    ~bounds_us:[| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512.; 1024. |]
    "optimizer.batch_size"

(* The batched what-if invocation (Section VI-C): one optimizer invocation
   runs [planner] over every prepared statement against one virtual index
   setup.  It has no catalog: the prepared statements carry every
   statistic it reads. *)
let optimize_batched ~virtual_config (prepared : prepared array) planner =
  let n = Array.length prepared in
  if n = 0 then [||]
  else begin
    Atomic.incr counters.optimize_calls;
    ignore (Atomic.fetch_and_add counters.batch_setup_saved (n - 1));
    let run () =
      Array.map
        (planner ~indexes_of:(visible_indexes (virtual_indexes virtual_config) prepared))
        prepared
    in
    if not (Xia_obs.Obs.on ()) then run ()
    else
      Xia_obs.Trace.with_span "optimizer.batch"
        ~args:(fun () -> [ ("statements", string_of_int n) ])
        (fun () ->
          Xia_obs.Metrics.observe (batch_size_hist ()) (float_of_int n);
          let t0 = Xia_obs.Obs.now_s () in
          let results = run () in
          Xia_obs.Metrics.observe_s (optimize_latency ())
            (Xia_obs.Obs.now_s () -. t0);
          results)
  end

(* Each plan is bit-for-bit what [optimize] returns for the statement: both
   walk the same defs in the same order. *)
let optimize_prepared ~virtual_config prepared =
  optimize_batched ~virtual_config prepared plan_prepared

(* The same invocation keeping only each statement's total: the walk
   builds no plan. *)
let optimize_costs ~virtual_config prepared =
  optimize_batched ~virtual_config prepared cost_prepared

(* The Enumerate Indexes mode.  A universal virtual index (for each data type
   and node kind) is put in place for every table the statement touches; the
   index-matching step then reports every access it matches.  The result is
   the statement's basic candidate patterns.  The universal indexes are
   never built as definitions: an index of the access's own table and type
   is there by construction, so matching asks only whether [//*] or [//@*]
   covers the access pattern. *)
let enumerate_indexes (stmt : Ast.statement) =
  Atomic.incr counters.enumerate_calls;
  let elem = Pattern.id Pattern.universal and attr = Pattern.id Pattern.universal_attr in
  let tables = Ast.tables stmt in
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun (a : Rewriter.access) ->
      let pid = Pattern.id a.pattern in
      if
        not
          (List.mem a.table tables
          && (Pattern.covers_id ~general:elem ~specific:pid
             || Pattern.covers_id ~general:attr ~specific:pid))
      then None
      else begin
        (* Dedup on interned ids; no key string is built. *)
        let key = (Xia_xpath.Interner.label a.table, pid, a.dtype) in
        if Hashtbl.mem seen key then None
        else begin
          Hashtbl.add seen key ();
          Some (a.table, a.pattern, a.dtype)
        end
      end)
    (Rewriter.indexable_accesses stmt)
