(* Configuration search (Section VI).

   Five algorithms over the candidate set, all knapsack-style under a disk
   budget:

   - greedy: density-ordered greedy on individual benefits, ignoring index
     interaction (the paper's strawman);
   - greedy with heuristics: additionally tracks which workload patterns are
     already covered (skipping redundant indexes) and admits a general index
     only if it is at least as beneficial as the candidates it generalizes
     and at most (1+β) their total size;
   - top-down lite / full: start from the DAG roots (most general candidates)
     and repeatedly replace the general index with the smallest ΔB/ΔC by its
     children until the configuration fits; lite sums individual benefits,
     full re-evaluates configurations;
   - dynamic programming: exact 0/1 knapsack on individual benefits (optimal
     modulo index interaction). *)

module Int_set = Candidate.Int_set
module Index_def = Xia_index.Index_def
module Obs = Xia_obs.Obs
module Trace = Xia_obs.Trace
module Metrics = Xia_obs.Metrics

(* Per-algorithm event counter, e.g. "search.greedy.admitted".  Looked up by
   name on each use; only reached when observability is on, and the registry
   is tiny, so the lookup is off the disabled path entirely. *)
let count name n =
  if n > 0 && Obs.on () then Metrics.add (Metrics.counter name) n

type outcome = {
  algorithm : string;
  config : Candidate.t list;
  size : int;
  benefit : float;          (* full-evaluation benefit of the final config *)
  optimizer_calls : int;    (* evaluator calls consumed by this search *)
  pruned : int;             (* evaluations skipped by upper-bound pruning *)
  elapsed : float;
}

let beta_default = 0.10

let candidate_size ev c = Benefit.candidate_size ev c

let config_size ev config = Benefit.config_size ev config

let density ev benefit_of c =
  let s = float_of_int (max 1 (candidate_size ev c)) in
  benefit_of c /. s

(* Candidates ordered by decreasing benefit density (deterministic
   tie-breaking on specificity then key).  Densities — and the logical key
   strings used as the final tie-break — are precomputed once per candidate
   rather than recomputed inside the comparator.  The tie-break stays on the key
   *string*: interned ids are allocation-order-dependent and must never
   decide a user-visible ordering. *)
let by_density ev benefit_of cands =
  let arr = Array.of_list cands in
  let scores = Array.map (density ev benefit_of) arr in
  let score = Hashtbl.create (Array.length arr) in
  Array.iteri
    (fun i (c : Candidate.t) ->
      Hashtbl.replace score c.id (scores.(i), Index_def.logical_key c.def))
    arr;
  let density_of (c : Candidate.t) = fst (Hashtbl.find score c.id) in
  let key_of (c : Candidate.t) = snd (Hashtbl.find score c.id) in
  List.sort
    (fun a b ->
      match compare (density_of b) (density_of a) with
      | 0 -> (
          match
            compare
              (Xia_xpath.Pattern.specificity b.Candidate.def.Index_def.pattern)
              (Xia_xpath.Pattern.specificity a.Candidate.def.Index_def.pattern)
          with
          | 0 -> String.compare (key_of a) (key_of b)
          | c -> c)
      | c -> c)
    cands

(* The bookkeeping every search shares: a trace span around the run, and
   the outcome's time, pruning and call deltas taken across the search.
   The final configuration's benefit is evaluated after them, still inside
   the span. *)
let bracket span ~algorithm ev search =
  Trace.with_span span @@ fun () ->
  let t0 = Obs.now_s () in
  let calls_before = Benefit.evaluations ev in
  let pruned_before = Benefit.pruned_count ev in
  let config = search () in
  let elapsed = Obs.now_s () -. t0 in
  let pruned = Benefit.pruned_count ev - pruned_before in
  let optimizer_calls = Benefit.evaluations ev - calls_before in
  let benefit = Benefit.benefit ev config in
  { algorithm; config; size = config_size ev config; benefit; optimizer_calls;
    pruned; elapsed }

(* -------- Plain greedy -------- *)

(* Search pool: candidates with positive individual benefit or used by some
   plan in combination. *)
let pool ev set =
  let useful = Benefit.useful_ids ev set in
  List.filter (fun (c : Candidate.t) -> Hashtbl.mem useful c.id) (Candidate.to_list set)

(* Lazy-evaluation entry for greedy (CELF-style): [le_value] is
   the candidate's benefit DENSITY — initialized from its atomic upper bound
   and only refreshed to the exact value when the entry reaches the front of
   the queue.  Since the upper bound dominates the exact benefit, an entry
   whose EXACT density tops the queue is guaranteed to top the exact
   ordering: every other entry's eventual exact density sits at or below its
   current (bounding) value.  Popping therefore reproduces the eager sorted
   order exactly — including ties, because the comparator below is the same
   total order [by_density] sorts with. *)
type celf_entry = {
  le_cand : Candidate.t;
  le_size : int;
  le_spec : int;
  le_key : string;
  le_used : bool;             (* kept by the plan-usage criterion *)
  mutable le_value : float;   (* density; an upper bound until [le_exact] *)
  mutable le_exact : bool;
}

(* Same total order as [by_density]: density desc, specificity desc, logical
   key asc.  Floats compare with the polymorphic [compare], as there. *)
let celf_better a b =
  match compare a.le_value b.le_value with
  | n when n <> 0 -> n > 0
  | _ -> (
      match compare a.le_spec b.le_spec with
      | n when n <> 0 -> n > 0
      | _ -> String.compare a.le_key b.le_key < 0)

let celf_entry ev used_tbl ~value ~exact (c : Candidate.t) =
  {
    le_cand = c;
    le_size = candidate_size ev c;
    le_spec = Xia_xpath.Pattern.specificity c.Candidate.def.Index_def.pattern;
    le_key = Index_def.logical_key c.Candidate.def;
    le_used = Hashtbl.mem used_tbl c.Candidate.def.lid;
    le_value = value;
    le_exact = exact;
  }

(* Plain greedy on individual benefit density, ignoring interaction.  The
   configuration is that of the eager version (sort the whole pool by exact
   density, admit in order while the budget fits; test/search_oracle.ml),
   but candidates are only cost-probed when their upper bound forces them
   to the front.  Exactness argument:

   - the queue holds {plan-used} ∪ {upper bound > 0}; everything else has
     individual benefit <= 0.0 -. mc <= 0 and is outside the eager pool, so
     skipping its probe outright cannot change the result (counted pruned);
   - a refreshed entry with exact benefit <= 0 that is not plan-used is
     dropped — the eager pool ([useful_ids]) excludes exactly those;
   - a popped EXACT entry precedes every remaining entry in the eager order
     (see [celf_entry]), so admissions happen in the eager sequence and the
     budget accumulator agrees step for step;
   - once the remaining budget is below the smallest remaining entry size,
     no remaining entry can be admitted and none can change the state
     (rejection keeps the accumulator), so the stale remainder is skipped
     without probing (counted pruned). *)
let greedy ev set ~budget =
  bracket "search.greedy" ~algorithm:"greedy" ev @@ fun () ->
  let used_tbl = Benefit.used_in_plans ev set in
  let entries = ref [] in
  List.iter
    (fun (c : Candidate.t) ->
      let ub = Benefit.atomic_upper_bound ev set c in
      let e = celf_entry ev used_tbl ~value:0.0 ~exact:false c in
      if e.le_used || ub > 0.0 then begin
        e.le_value <- ub /. float_of_int (max 1 e.le_size);
        entries := e :: !entries
      end
      else Benefit.count_pruned ev 1)
    (Candidate.to_list set);
  let config = ref [] in
  let used_bytes = ref 0 in
  let continue_ = ref true in
  while !continue_ && !entries <> [] do
    let min_size =
      List.fold_left (fun acc e -> min acc e.le_size) max_int !entries
    in
    if !used_bytes + min_size > budget then begin
      (* Nothing left can fit; an eager run would probe and reject each. *)
      Benefit.count_pruned ev
        (List.length (List.filter (fun e -> not e.le_exact) !entries));
      count "search.greedy.rejected" (List.length !entries);
      entries := [];
      continue_ := false
    end
    else begin
      let top =
        List.fold_left
          (fun best e -> if celf_better e best then e else best)
          (List.hd !entries) (List.tl !entries)
      in
      if not top.le_exact then begin
        let v = Benefit.individual_benefit ev top.le_cand in
        if v <= 0.0 && not top.le_used then
          (* outside the eager pool: probed (not pruned), then dropped *)
          entries := List.filter (fun e -> e != top) !entries
        else begin
          top.le_value <- v /. float_of_int (max 1 top.le_size);
          top.le_exact <- true
        end
      end
      else begin
        if !used_bytes + top.le_size <= budget then begin
          count "search.greedy.admitted" 1;
          config := top.le_cand :: !config;
          used_bytes := !used_bytes + top.le_size
        end
        else count "search.greedy.rejected" 1;
        entries := List.filter (fun e -> e != top) !entries
      end
    end
  done;
  List.rev !config

(* -------- Greedy with heuristics -------- *)

let greedy_heuristics ?(beta = beta_default) ev set ~budget =
  bracket "search.greedy_heuristics" ~algorithm:"greedy+heuristics" ev
  @@ fun () ->
  let cands = by_density ev (Benefit.individual_benefit ev) (pool ev set) in
  (* Per-search tables: the sorted affected set of every pool candidate, and
     the basic ids each visited candidate covers (one containment test per
     basic, once per candidate). *)
  let affected = Hashtbl.create 64 in
  List.iter
    (fun (c : Candidate.t) -> Hashtbl.replace affected c.id (Candidate.affected_array c))
    cands;
  let basics = Candidate.basics set in
  let covered_ids = Hashtbl.create 64 in
  let covered_basic_ids (c : Candidate.t) =
    match Hashtbl.find_opt covered_ids c.id with
    | Some ids -> ids
    | None ->
        let ids =
          List.fold_left
            (fun acc (b : Candidate.t) ->
              if Index_def.covers ~general:c.def ~specific:b.def then Int_set.add b.id acc
              else acc)
            Int_set.empty basics
        in
        Hashtbl.replace covered_ids c.id ids;
        ids
  in
  let covered = ref Int_set.empty in
  (* The configuration so far, newest index first, with its interaction
     groups already evaluated: a probe extends it by the candidates tried,
     and only the groups those candidates join are evaluated. *)
  let cfg = ref Benefit.empty in
  let used = ref 0 in
  let cur_benefit = ref 0.0 in
  let in_config (c : Candidate.t) =
    List.exists (fun (x : Candidate.t) -> x.id = c.id) (Benefit.members !cfg)
  in
  (* Adopt [probed], the configuration with [c] prepended, and its benefit. *)
  let admit c s probed ib =
    count "search.greedy_heuristics.admitted" 1;
    cfg := probed;
    used := !used + s;
    cur_benefit := ib;
    covered := Int_set.union !covered (covered_basic_ids c)
  in
  let probe xs =
    let probed = Benefit.extend ev !cfg xs in
    (probed, Benefit.value ev probed)
  in
  (* Candidates whose value only shows in combination (e.g. the two sides of
     an OR filter, or index-ANDing partners): try the whole interaction group
     at once. *)
  let try_partner_group (c : Candidate.t) =
    let c_affected = Hashtbl.find affected c.id in
    let partners =
      List.filter
        (fun (x : Candidate.t) ->
          (not (in_config x))
          && x.id <> c.id
          && Candidate.overlap (Hashtbl.find affected x.id) c_affected)
        cands
    in
    let group = c :: partners in
    if List.length group >= 2 && List.length group <= 6 then begin
      let group_size =
        List.fold_left (fun acc x -> acc + candidate_size ev x) 0 group
      in
      if !used + group_size <= budget then begin
        let _, ib = probe group in
        if ib > !cur_benefit then
          List.iter
            (fun (x : Candidate.t) ->
              let probed, ib = probe [ x ] in
              admit x (candidate_size ev x) probed ib)
            group
      end
    end
  in
  List.iter
    (fun (c : Candidate.t) ->
      let s = candidate_size ev c in
      if (not (in_config c)) && !used + s <= budget then begin
        let adds_coverage = not (Int_set.subset (covered_basic_ids c) !covered) in
        if adds_coverage then begin
          if Candidate.is_general c then begin
            (* The general index must beat the indexes it generalizes and
               not blow up the size budget share. *)
            let children = Candidate.children_of set c in
            let children_size =
              List.fold_left (fun acc x -> acc + candidate_size ev x) 0 children
            in
            let with_general, ib_general = probe [ c ] in
            let _, ib_children = probe children in
            if
              ib_general >= ib_children
              && float_of_int s <= (1.0 +. beta) *. float_of_int children_size
              && ib_general > !cur_benefit
            then admit c s with_general ib_general
          end
          else begin
            let probed, ib = probe [ c ] in
            if ib > !cur_benefit then admit c s probed ib
            else if not (Candidate.is_general c) then try_partner_group c
          end
        end
      end)
    cands;
  let config = Benefit.members !cfg in
  count "search.greedy_heuristics.rejected" (List.length cands - List.length config);
  List.rev config

(* -------- Top-down -------- *)

type variant = Lite | Full

let dedup_by_id config =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun (c : Candidate.t) ->
      if Hashtbl.mem seen c.id then false
      else begin
        Hashtbl.add seen c.id ();
        true
      end)
    config

(* Greedy fallback once no general candidate can be replaced: keep the best
   subset of the (now specific) configuration that fits.  Candidates whose
   upper bound is non-positive are dropped before the density sort without
   probing: their individual benefit is at most [0. -. mc <= 0], so the
   fold's [> 0.0] admission test can never pass for them, and rejected
   candidates never change the accumulator — the kept list is that of the
   unpruned fallback. *)
let greedy_fallback ev set ~budget config =
  let config =
    List.filter
      (fun (c : Candidate.t) ->
        if Benefit.atomic_upper_bound ev set c <= 0.0 then begin
          Benefit.count_pruned ev 1;
          false
        end
        else true)
      config
  in
  let ordered = by_density ev (Benefit.individual_benefit ev) config in
  let kept, _ =
    List.fold_left
      (fun (kept, used) c ->
        let s = candidate_size ev c in
        if used + s <= budget && Benefit.individual_benefit ev c > 0.0 then
          (c :: kept, used + s)
        else (kept, used))
      ([], 0) ordered
  in
  List.rev kept

(* Top-down DAG descent; test/search_oracle.ml is the unpruned reference. *)
let top_down variant ev set ~budget =
  let span, algorithm =
    match variant with
    | Lite -> ("search.top_down_lite", "top-down lite")
    | Full -> ("search.top_down_full", "top-down full")
  in
  bracket span ~algorithm ev @@ fun () ->
  (* Build the floors memo before the first round, so its evaluations come
     first in the sub-configuration cache and every round's bound hits the
     memo: the call and cache-hit counts depend on that order. *)
  ignore (Benefit.floors ev set);
  (* Individual benefit with the zero-bound shortcut: a candidate whose
     upper bound is 0 provably has a delta term of exactly +0.0, so its
     benefit is [0.0 -. mc] bit-for-bit — no optimizer probe needed.  Only
     the Lite variant scores with individual benefits; Full re-evaluates
     whole configurations, where the bound says nothing. *)
  let ib_sharp (c : Candidate.t) =
    if Benefit.atomic_upper_bound ev set c <= 0.0 then begin
      Benefit.count_pruned ev 1;
      0.0 -. Benefit.maintenance_charge ev [ c ]
    end
    else Benefit.individual_benefit ev c
  in
  (* Preprocessing: drop candidates with zero or negative benefit that no
     optimizer plan uses (the paper's two removal reasons). *)
  let in_space = Benefit.useful_ids ~prune:true ev set in
  let space_mem (c : Candidate.t) = Hashtbl.mem in_space c.id in
  let space = List.filter space_mem (Candidate.to_list set) in
  let roots =
    List.filter
      (fun c -> not (List.exists space_mem (Candidate.parents_of set c)))
      space
  in
  let children_in_space c =
    List.filter space_mem (Candidate.children_of set c)
  in
  let config = ref (dedup_by_id roots) in
  let guard = ref (4 * max 1 (Candidate.cardinality set)) in
  let continue_ = ref true in
  while !continue_ && config_size ev !config > budget && !guard > 0 do
    decr guard;
    let current = !config in
    let replaceable =
      List.filter (fun c -> children_in_space c <> []) current
    in
    (* Score each replaceable general index by ΔB/ΔC; the configuration is
       fixed for the round. *)
    let scored =
      List.map
        (fun (g : Candidate.t) ->
          let children =
            List.filter
              (fun (ch : Candidate.t) ->
                not (List.exists (fun (x : Candidate.t) -> x.id = ch.id) current))
              (children_in_space g)
          in
          let delta_c =
            candidate_size ev g
            - List.fold_left (fun acc c -> acc + candidate_size ev c) 0 children
          in
          if delta_c <= 0 then None
          else
            let delta_b =
              match variant with
              | Lite ->
                  ib_sharp g
                  -. List.fold_left (fun acc c -> acc +. ib_sharp c) 0.0 children
              | Full ->
                  let rest =
                    List.filter (fun (x : Candidate.t) -> x.id <> g.id) current
                  in
                  Benefit.benefit ev (g :: rest) -. Benefit.benefit ev (children @ rest)
            in
            Some (g, children, delta_b, delta_c))
        replaceable
      |> List.filter_map Fun.id
    in
    count (span ^ ".rounds") 1;
    match scored with
    | [] -> continue_ := false
    | _ ->
        count (span ^ ".replacements") 1;
        let ratio (_, _, db, dc) = db /. float_of_int dc in
        let best =
          List.fold_left
            (fun best x ->
              let r = ratio x and rb = ratio best in
              if r < rb then x
              else if Float.equal r rb then
                (* ties: largest ΔC, then the smallest logical key *)
                let (g, _, _, dc) = x and (gb, _, _, dcb) = best in
                if
                  dc > dcb
                  || dc = dcb
                     && String.compare (Index_def.logical_key g.Candidate.def)
                          (Index_def.logical_key gb.Candidate.def)
                        < 0
                then x
                else best
              else best)
            (List.hd scored) (List.tl scored)
        in
        let g, children, _, _ = best in
        config :=
          dedup_by_id
            (children @ List.filter (fun (x : Candidate.t) -> x.id <> g.id) !config)
  done;
  if config_size ev !config > budget then
    greedy_fallback ev set ~budget !config
  else !config

let top_down_lite ev set ~budget = top_down Lite ev set ~budget
let top_down_full ev set ~budget = top_down Full ev set ~budget

(* -------- Dynamic programming (exact knapsack, no interaction) -------- *)

(* The items are filled in the order greedy breaks density ties in
   (specificity descending, then logical key), not in candidate-id order,
   which follows first occurrence in the workload.  A capacity keeps its
   incumbent on a tie, so of two equal-value sets the table keeps the one
   whose items come first in that order: the more specific indexes.
   Individual benefits are canonical sums ({!Benefit}), so a permuted
   workload fills the same table and chooses the same logical keys. *)
let dynamic_programming ev set ~budget =
  bracket "search.dynamic_programming" ~algorithm:"dynamic programming" ev
  @@ fun () ->
  let items =
    List.filter (fun c -> candidate_size ev c <= budget) (pool ev set)
    |> List.map (fun (c : Candidate.t) ->
           ((-Xia_xpath.Pattern.specificity c.def.pattern, Index_def.logical_key c.def), c))
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
  in
  let items = Array.of_list items in
  let n = Array.length items in
  if n = 0 then []
  else begin
    (* Size granularity keeps the table small; round item sizes UP so the
       budget is never exceeded.  [units] is clamped to at least 1: every
       item here fits the budget, yet [budget / unit] is 0 whenever the
       budget is below one granularity unit, which used to make the knapsack
       capacity zero and silently return the empty configuration. *)
    let unit = max Xia_storage.Cost_params.page_size (budget / 2048) in
    let units = max 1 (budget / unit) in
    let w_of i = (candidate_size ev items.(i) + unit - 1) / unit in
    let values = Array.map (Benefit.individual_benefit ev) items in
    let v_of i = values.(i) in
    let value = Array.make (units + 1) 0.0 in
    let take = Array.make_matrix n (units + 1) false in
    if Obs.on () then begin
      (* Table-fill work: item i touches capacities w_of i .. units. *)
      let steps = ref 0 in
      for i = 0 to n - 1 do
        steps := !steps + max 0 (units - w_of i + 1)
      done;
      count "search.dynamic_programming.knapsack_steps" !steps
    end;
    for i = 0 to n - 1 do
      let w = w_of i and v = v_of i in
      for cap = units downto w do
        let with_item = value.(cap - w) +. v in
        if with_item > value.(cap) then begin
          value.(cap) <- with_item;
          take.(i).(cap) <- true
        end
      done
    done;
    (* Reconstruct: walk items backwards. *)
    let config = ref [] in
    let cap = ref units in
    for i = n - 1 downto 0 do
      if take.(i).(!cap) then begin
        config := items.(i) :: !config;
        cap := !cap - w_of i
      end
    done;
    count "search.dynamic_programming.admitted" (List.length !config);
    count "search.dynamic_programming.rejected" (n - List.length !config);
    (* Listed in candidate order, like every other search's pool. *)
    List.sort (fun (a : Candidate.t) (b : Candidate.t) -> Int.compare a.id b.id) !config
  end

(* -------- All-Index configuration -------- *)

(* Indexes for every indexable XPath expression in the workload: all basic
   candidates.  The best possible configuration for a query-only workload. *)
let all_index ev set =
  bracket "search.all_index" ~algorithm:"all index" ev @@ fun () ->
  Candidate.basics set
