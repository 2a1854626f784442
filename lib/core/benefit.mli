(** Benefit evaluation with the paper's optimizer-call-minimizing machinery:
    affected sets, sub-configurations and a sub-configuration cache
    (Sections III and VI-C).

    What-if calls pass the virtual configuration to the optimizer explicitly,
    so evaluation never mutates the catalog.  The sub-configuration cache is
    keyed by sorted arrays of interned logical-index ids, so no key strings
    are built on the hot path. *)

module Catalog = Xia_index.Catalog
module Workload = Xia_workload.Workload

type t

(** Build an evaluator: reads every table's statistics once (collecting
    missing or stale ones), prepares every statement once
    ({!Xia_optimizer.Optimizer.prepare}) and costs it with no indexes (one
    batched optimizer invocation).  The evaluator keeps no catalog: every
    later what-if evaluation plans the prepared statements, and sizes and
    maintenance charges derive from the statistics read here, so every
    figure it reports is bound to the catalog as it was at creation.
    [index_cost_factor] (default [1.0]) is passed to every
    {!Xia_optimizer.Optimizer.prepare}: it scales this evaluator's
    index-plan costs and no other evaluator's.  Equivalent to
    [of_summary] over {!Workload_summary.raw}. *)
val create : ?index_cost_factor:float -> _ Catalog.t -> Workload.t -> t

(** Build an evaluator over a workload summary: statements are the summary's
    cluster representatives and every cost sum is weighted by the cluster
    frequencies, so the raw and compressed paths share one code path.  The
    evaluator runs on one domain: [domains] is accepted and ignored, only
    because the advisor benchmark still passes [~domains:1].
    [index_cost_factor] is as in {!create}. *)
val of_summary :
  ?domains:int -> ?index_cost_factor:float -> _ Catalog.t -> Workload_summary.t -> t

(** The summary this evaluator runs on (identity clusters for {!create}). *)
val summary : t -> Workload_summary.t

(** Optimizer invocations made through this evaluator.  Every invocation is
    batched ({!Xia_optimizer.Optimizer.optimize_costs}, or
    {!Xia_optimizer.Optimizer.optimize_prepared} where plans are read), so a
    (sub-)configuration evaluation counts one however many statements it
    plans; the per-statement raw equivalent is tracked by
    [Optimizer.counters.batch_setup_saved]. *)
val evaluations : t -> int

(** Sub-configuration cache hits of this evaluator. *)
val cache_hits : t -> int

(** Configuration evaluations skipped by upper-bound pruning (probes and
    search steps whose optimistic bound could not beat the incumbent). *)
val pruned_count : t -> int

(** Record [n] pruned evaluations (search algorithms call this when a bound
    lets them skip a probe).  No-op for [n <= 0]. *)
val count_pruned : t -> int -> unit

(** Number of distinct sub-configurations currently cached. *)
val cached_sub_configs : t -> int

(** Index-access match tests ({!Xia_optimizer.Optimizer.key_matches}) made
    by this evaluator's {!used_in_plans} and {!floors}: one per (distinct
    access key, candidate) pair, the basics for the first and every
    candidate for the second, whatever the number of statements. *)
val match_tests : t -> int

(** Frequency-weighted workload cost with no indexes, its terms summed in
    ascending order. *)
val base_workload_cost : t -> float

(** Frequency-weighted workload cost under a configuration (full batched
    pass over every statement, used for final reporting; served from the
    sub-configuration cache when the configuration's fingerprint was already
    evaluated in full).  The defs are planned in logical-identity order
    ({!Xia_index.Index_def.compare_logical}) and the
    terms summed in ascending order: a permuted workload or configuration
    gets a bit-identical cost. *)
val workload_cost : t -> Candidate.t list -> float

(** Total maintenance charge [Σ freq·mc(x, s)] of a configuration, from
    the statistics at the evaluator's creation. *)
val maintenance_charge : t -> Candidate.t list -> float

(** A configuration partitioned into sub-configurations ("groups") of
    candidates with overlapping affected sets, each carrying its cost delta,
    computed once when the group forms.  A configuration belongs to the
    evaluator that extended it. *)
type config

(** The configuration with no indexes. *)
val empty : config

(** The members, in list order. *)
val members : config -> Candidate.t list

(** The groups in first-member order, each listing its members in reverse
    list order. *)
val groups : config -> Candidate.t list list

(** [extend t cfg xs] is the configuration of [xs @ members cfg], less the
    candidates already in [cfg] (extending by a member is a no-op).  The
    groups a new candidate overlaps merge into one group; only groups formed
    by this extension are evaluated, and the rest keep their deltas.
    @raise Invalid_argument if a candidate's affected set references a
    statement index outside the evaluator's workload — a stale candidate set
    paired with the wrong evaluator (such indices used to be dropped
    silently, undercounting the delta). *)
val extend : t -> config -> Candidate.t list -> config

(** The paper's [Benefit(x1..xn; W)] of a configuration: its group deltas
    summed, minus its maintenance charge.  Every sum in it (a group's
    statement terms, the group deltas, the maintenance terms) adds its
    terms in ascending order, so the value is bit-identical for any order
    of the workload's statements and of the configuration's members. *)
val value : t -> config -> float

(** [benefit t l] is [value t (extend t empty l)].
    @raise Invalid_argument as {!extend}. *)
val benefit : t -> Candidate.t list -> float

val individual_benefit : t -> Candidate.t -> float

(** Derived size in bytes of a candidate's index, from its table's
    statistics at the evaluator's creation; memoized per candidate id (the
    statistics derivation walk is pure but not free).
    @raise Invalid_argument when the candidate's table was not in the
    catalog. *)
val candidate_size : t -> Candidate.t -> int

(** Sum of {!candidate_size} over a configuration. *)
val config_size : t -> Candidate.t list -> int

(** Per-statement cost floors: statement [i]'s what-if cost under every
    candidate that could possibly apply to it, so
    [floors.(i) <= cost_i(config) <= base_i] for EVERY configuration drawn
    from [set].  The candidates applicable to each statement come from its
    affected sets and from one match of each distinct access key against
    the pool.  Memoized per evaluator (one grouped batch pass on first
    use). *)
val floors : t -> Candidate.set -> float array

(** [atomic_upper_bound t set c] dominates [individual_benefit t c]:
    [Σ weight_i·(base_i − floors.(i))] over [c]'s affected statements.  A
    bound of [0.] certifies the individual benefit is exactly
    [0. -. maintenance_charge t [c]] (bit-for-bit), with no optimizer call.
    Memoized per candidate id. *)
val atomic_upper_bound : t -> Candidate.set -> Candidate.t -> float

(* Interned logical ids ([Xia_index.Index_def.t]'s [lid]) of candidates
   used by some plan when each statement's basic candidates are installed
   together (captures combination-only value).  Memoized per evaluator. *)
val used_in_plans : t -> Candidate.set -> (int, unit) Hashtbl.t

(** Ids of candidates worth searching over: positive individual benefit or
    used by some plan in combination (the paper's "not used in optimizer
    plans" pruning criterion, inverted).  Plan-used candidates are never
    probed (the disjunction short-circuits); with [~prune:true], candidates
    whose {!atomic_upper_bound} is non-positive are skipped too.  The result
    set is identical either way — only the optimizer-call count changes.
    Memoized per evaluator (first caller's [prune] wins the computation). *)
val useful_ids : ?prune:bool -> t -> Candidate.set -> (int, unit) Hashtbl.t
