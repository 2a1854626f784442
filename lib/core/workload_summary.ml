(* Workload compression by basic-candidate signature (CoPhy-style).

   The advisor's benefit machinery is linear in workload size on every probe:
   what-if costs, maintenance charges and affected-set unions all walk the
   statement list.  Large workloads are dominated by repetition — the same
   query template with different constants, or literally duplicated
   statements — and every statement's interaction with the candidate space is
   fully described by its *basic-candidate signature*: the set of (table,
   pattern, type) triples the optimizer's Enumerate Indexes mode derives from
   it.  Two statements with the same signature produce the same basic
   candidates, are affected by the same candidate indexes, and differ only in
   the constants of their predicates.

   A summary therefore clusters statements by signature and runs the whole
   benefit/search loop on one representative per cluster, weighted by the
   cluster's summed frequency.  Enumerating candidates over the
   representatives yields exactly the same candidate-definition set as the
   full workload (the signature IS the enumerated pattern set), so only the
   per-statement cost estimates are approximated: the representative's cost
   stands in for its cluster-mates'.  When every cluster is cost-homogeneous
   (exact duplicates), compressed and raw recommendations coincide; otherwise
   the regret is bounded by the within-cluster cost spread.

   Signatures are sorted arrays of interned triple ids — PR 3's interner
   makes them integer comparisons, and [Optimizer.enumerate_indexes] is a
   pure statement analysis (it never invokes the cost model), so
   fingerprinting 10k statements costs milliseconds, not optimizer calls.

   DML statements additionally key on their kind and target tables: the
   maintenance charge depends on both, so an Insert and a Delete — or two
   Inserts against different tables — must never share a representative even
   if they enumerate the same patterns.

   Clusters are emitted in first-occurrence order: hash-iteration order must
   never reach the result (lint N001), and the representative list must be a
   stable function of the input list. *)

module Workload = Xia_workload.Workload
module Optimizer = Xia_optimizer.Optimizer
module Interner = Xia_xpath.Interner
module Ast = Xia_query.Ast

(* Triple interner: (table label id, pattern id, dtype tag) -> dense id.
   Toplevel is fine: the interner is internally domain-safe (atomic snapshot
   publication), and ids are only ever used for identity. *)
let atoms : (int * int * int) Interner.t = Interner.create ()

let dtype_tag = function
  | Xia_index.Index_def.Dstring -> 0
  | Xia_index.Index_def.Ddouble -> 1

(* Basic-candidate signature of a statement: the sorted interned ids of the
   (table, pattern, type) triples Enumerate Indexes derives from it.  Pure
   statement analysis — no cost-model invocation is counted or made. *)
let signature catalog stmt =
  let triples = Optimizer.enumerate_indexes catalog stmt in
  let ids =
    List.map
      (fun (table, pattern, dtype) ->
        Interner.intern atoms
          (Interner.label table, Xia_xpath.Pattern.id pattern, dtype_tag dtype))
      triples
  in
  let arr = Array.of_list (List.sort_uniq compare ids) in
  arr

let kind_tag = function
  | Ast.Select _ -> 0
  | Ast.Insert _ -> 1
  | Ast.Delete _ -> 2
  | Ast.Update _ -> 3

(* Cluster key: statement kind, then (for DML) the sorted target-table ids
   and a separator, then the signature.  Queries with equal signatures
   cluster together; DML only merges within the same kind and table set. *)
let cluster_key catalog (stmt : Ast.statement) =
  let sg = signature catalog stmt in
  let kind = kind_tag stmt in
  if kind = 0 then Array.append [| 0 |] sg
  else
    let tables =
      Array.of_list (List.sort_uniq compare (List.map Interner.label (Ast.tables stmt)))
    in
    Array.concat [ [| kind |]; tables; [| -1 |]; sg ]

type t = {
  items : Workload.t;     (* the representatives, in first-occurrence order *)
  weights : float array;  (* summed cluster frequencies, aligned with [items] *)
  statements : int;       (* source workload size *)
  compressed : bool;
}

type info = {
  statements : int;
  cluster_count : int;
  compressed : bool;
}

let cluster_count t = Array.length t.weights

let raw (workload : Workload.t) =
  { items = workload;
    weights = Array.of_list (List.map (fun (item : Workload.item) -> item.freq) workload);
    statements = List.length workload; compressed = false }

(* Distinct statements, keyed by value: a long workload repeats a few
   hundred templates, so [cluster_key] (Enumerate Indexes plus interning)
   runs once per distinct statement.  Keying by value rather than by
   physical identity also catches duplicates built separately in memory. *)
module Statements = Hashtbl.Make (struct
  type t = Ast.statement

  let equal a b = compare a b = 0
  let hash = Ast.hash
end)

(* A cluster being built: its first item is the representative, and
   member frequencies are summed in workload order. *)
type acc = { rep : Workload.item; mutable sum : float }

let compress catalog (workload : Workload.t) =
  let n = List.length workload in
  Xia_obs.Trace.with_span "summary.compress"
    ~args:(fun () -> [ ("statements", string_of_int n) ])
  @@ fun () ->
  let by_key = Hashtbl.create 64 in
  let by_statement = Statements.create 256 in
  let order = ref [] in  (* clusters in reverse first-occurrence order *)
  List.iter
    (fun (item : Workload.item) ->
      match Statements.find_opt by_statement item.statement with
      | Some acc -> acc.sum <- acc.sum +. item.freq
      | None -> (
          let key = cluster_key catalog item.statement in
          match Hashtbl.find_opt by_key key with
          | Some acc ->
              Statements.add by_statement item.statement acc;
              acc.sum <- acc.sum +. item.freq
          | None ->
              let acc = { rep = item; sum = item.freq } in
              Hashtbl.add by_key key acc;
              Statements.add by_statement item.statement acc;
              order := acc :: !order))
    workload;
  let clusters = List.rev !order in
  let t =
    { items = List.map (fun acc -> acc.rep) clusters;
      weights = Array.of_list (List.map (fun acc -> acc.sum) clusters);
      statements = n; compressed = true }
  in
  if Xia_obs.Obs.on () then begin
    let k = cluster_count t in
    Xia_obs.Metrics.add (Xia_obs.Metrics.counter "summary.statements") n;
    Xia_obs.Metrics.add (Xia_obs.Metrics.counter "summary.clusters") k;
    if k > 0 then
      Xia_obs.Metrics.set (Xia_obs.Metrics.gauge "summary.compression_ratio")
        (float_of_int n /. float_of_int k)
  end;
  t

let info (t : t) =
  { statements = t.statements; cluster_count = cluster_count t;
    compressed = t.compressed }

(* The summarized workload the benefit/search loop runs on: one
   representative item per cluster, in cluster order.  Representatives keep
   their own label/statement/frequency; the cluster weight lives in
   {!weights} (so the raw path is the identity and weighted sums stay in one
   code path in [Benefit]). *)
let workload t = t.items

(* Per-representative weights, aligned with {!workload}: the summed
   frequency of each cluster (for a raw summary, exactly the item
   frequencies). *)
let weights t = t.weights

let pp_info ppf i =
  if i.compressed then
    Fmt.pf ppf "%d statements -> %d clusters (%.1fx)" i.statements
      i.cluster_count
      (if i.cluster_count = 0 then 1.0
       else float_of_int i.statements /. float_of_int i.cluster_count)
  else Fmt.pf ppf "%d statements (uncompressed)" i.statements
