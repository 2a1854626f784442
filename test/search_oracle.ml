(* The unpruned searches that Xia_advisor.Search's pruned ones replaced,
   kept as the differential oracle, plus a brute-force optimum for dynamic
   programming.

   Every candidate a search considers is cost-probed exactly: no upper
   bounds, no lazy queue, no zero-bound shortcut, and no [Par].  Each search
   returns the outcome the library's search must reproduce in [config],
   [size] and [benefit] (bit-for-bit); [pruned] is always 0 and [elapsed]
   is not measured. *)

module B = Xia_advisor.Benefit
module C = Xia_advisor.Candidate
module S = Xia_advisor.Search
module D = Xia_index.Index_def

(* [optimizer_calls] counts the calls the search made before its final
   configuration is scored, as the library's outcome does. *)
let run ~algorithm ev search =
  let calls_before = B.evaluations ev in
  let config = search () in
  let optimizer_calls = B.evaluations ev - calls_before in
  {
    S.algorithm;
    config;
    size = B.config_size ev config;
    benefit = B.benefit ev config;
    optimizer_calls;
    pruned = 0;
    elapsed = 0.0;
  }

(* Candidates with positive individual benefit or used by some plan. *)
let pool ev set =
  let useful = B.useful_ids ev set in
  List.filter (fun (c : C.t) -> Hashtbl.mem useful c.C.id) (C.to_list set)

(* Decreasing individual-benefit density, then decreasing pattern
   specificity, then increasing logical key. *)
let by_density ev cands =
  let keyed =
    List.map
      (fun (c : C.t) ->
        let size = float_of_int (max 1 (B.candidate_size ev c)) in
        ( ( B.individual_benefit ev c /. size,
            Xia_xpath.Pattern.specificity c.C.def.D.pattern,
            D.logical_key c.C.def ),
          c ))
      cands
  in
  List.stable_sort
    (fun ((da, sa, ka), _) ((db, sb, kb), _) ->
      match compare db da with
      | 0 -> ( match compare sb sa with 0 -> String.compare ka kb | n -> n)
      | n -> n)
    keyed
  |> List.map snd

(* Walk [cands] in order, keeping each that fits what is left of the
   budget and passes [admit]. *)
let fill ev ~budget ?(admit = fun _ -> true) cands =
  let kept, _ =
    List.fold_left
      (fun (kept, used) c ->
        let s = B.candidate_size ev c in
        if used + s <= budget && admit c then (c :: kept, used + s)
        else (kept, used))
      ([], 0) cands
  in
  List.rev kept

(* The eager greedy: probe the whole pool, sort it, admit in order. *)
let greedy ev set ~budget =
  run ~algorithm:"greedy" ev @@ fun () ->
  fill ev ~budget (by_density ev (pool ev set))

let without (g : C.t) config =
  List.filter (fun (x : C.t) -> x.C.id <> g.C.id) config

let dedup config =
  List.fold_left
    (fun acc (c : C.t) ->
      if List.exists (fun (x : C.t) -> x.C.id = c.C.id) acc then acc
      else c :: acc)
    [] config
  |> List.rev

(* Top-down descent over the [useful_ids] space: start from its roots and,
   while the configuration is over budget, replace the general index with
   the smallest ΔB/ΔC (ties: largest ΔC, then the smallest logical key) by
   its children not already chosen.  ΔB sums individual benefits for Lite
   and re-evaluates the configuration for Full.  When no index can be replaced, fall back to a
   greedy pass over the configuration that keeps positive benefits. *)
let top_down ~full ev set ~budget =
  let algorithm = if full then "top-down full" else "top-down lite" in
  run ~algorithm ev @@ fun () ->
  let useful = B.useful_ids ev set in
  let in_space (c : C.t) = Hashtbl.mem useful c.C.id in
  let children_in_space c = List.filter in_space (C.children_of set c) in
  let roots =
    List.filter
      (fun c -> not (List.exists in_space (C.parents_of set c)))
      (List.filter in_space (C.to_list set))
  in
  let score config (g : C.t) =
    let children =
      List.filter
        (fun (ch : C.t) ->
          not (List.exists (fun (x : C.t) -> x.C.id = ch.C.id) config))
        (children_in_space g)
    in
    let delta_c = B.candidate_size ev g - B.config_size ev children in
    if children_in_space g = [] || delta_c <= 0 then None
    else
      let delta_b =
        if full then
          B.benefit ev (g :: without g config)
          -. B.benefit ev (children @ without g config)
        else
          B.individual_benefit ev g
          -. List.fold_left (fun acc c -> acc +. B.individual_benefit ev c) 0.0 children
      in
      Some (g, children, delta_b /. float_of_int delta_c, delta_c)
  in
  let rec descend config guard =
    if B.config_size ev config <= budget || guard = 0 then config
    else
      match List.filter_map (score config) config with
      | [] -> config
      | first :: rest ->
          let g, children, _, _ =
            List.fold_left
              (fun ((gb, _, rb, dcb) as best) ((g, _, r, dc) as x) ->
                let key (c : C.t) = D.logical_key c.C.def in
                if
                  r < rb
                  || Float.equal r rb
                     && (dc > dcb || (dc = dcb && String.compare (key g) (key gb) < 0))
                then x
                else best)
              first rest
          in
          descend (dedup (children @ without g config)) (guard - 1)
  in
  let config = descend (dedup roots) (4 * max 1 (C.cardinality set)) in
  if B.config_size ev config <= budget then config
  else
    fill ev ~budget
      ~admit:(fun c -> B.individual_benefit ev c > 0.0)
      (by_density ev config)

let top_down_lite = top_down ~full:false
let top_down_full = top_down ~full:true

(* The best benefit over every subset of the greedy pool whose sizes,
   rounded up to dynamic programming's knapsack unit, fit the budget in
   units.  Dynamic programming reaches it whenever benefit is additive
   over the pool.  Exponential in the pool size: small pools only. *)
let knapsack_optimum ev set ~budget =
  let unit = max Xia_storage.Cost_params.page_size (budget / 2048) in
  let units = max 1 (budget / unit) in
  let weight c = (B.candidate_size ev c + unit - 1) / unit in
  let items =
    Array.of_list (List.filter (fun c -> weight c <= units) (pool ev set))
  in
  let n = Array.length items in
  let best = ref neg_infinity in
  for mask = 0 to (1 lsl n) - 1 do
    let config = ref [] and w = ref 0 in
    for i = n - 1 downto 0 do
      if mask land (1 lsl i) <> 0 then begin
        config := items.(i) :: !config;
        w := !w + weight items.(i)
      end
    done;
    if !w <= units then
      best := Float.max !best (B.benefit ev (Xia_eval.Exhaustive.canonical !config))
  done;
  !best
