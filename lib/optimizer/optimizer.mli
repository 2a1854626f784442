(** The cost-based query optimizer, including the two advisor modes the paper
    adds to the database server: Enumerate Indexes and Evaluate Indexes. *)

module Catalog = Xia_index.Catalog
module Index_def = Xia_index.Index_def
module Ast = Xia_query.Ast
module Pattern = Xia_xpath.Pattern

type mode =
  | Normal    (** plan over real (materialized) indexes *)
  | Evaluate  (** plan over the catalog's virtual-index configuration *)

type counters = {
  optimize_calls : int Atomic.t;
      (** optimizer invocations: one per {!optimize} and one per
          {!optimize_batch} (however many statements the batch plans) *)
  enumerate_calls : int Atomic.t;
  plans_considered : int Atomic.t;
  batched_calls : int Atomic.t;  (** {!optimize_batch} invocations *)
  batch_setup_saved : int Atomic.t;
      (** per-statement setup phases avoided by batching: Σ (batch size − 1).
          [optimize_calls + batch_setup_saved] is the raw-equivalent call
          count the per-statement protocol would have made. *)
}

(** Global optimizer-call accounting (the quantity the paper's Section VI-C
    minimizes).  Atomic: the parallel what-if evaluator optimizes from
    several domains at once. *)
val counters : counters

val reset_counters : unit -> unit

(** Cost-model perturbation knob for the quality-evaluation harness
    ([lib/eval]): every index-plan cost is multiplied by this factor before
    competing with the document scan.  The default [1.0] is a bitwise no-op;
    a large factor makes index plans lose every comparison, collapsing
    recommendations to the empty configuration — the deliberate regression
    the eval ratchet ([tools/ratchet.ml]) must catch.  Test/eval-only:
    never set it in production paths. *)
val index_cost_factor : float Atomic.t

(** Index matching: can [def] serve [access]?  Same table and data type, and
    the index pattern covers the access pattern. *)
val index_matches : Index_def.t -> Xia_query.Rewriter.access -> bool

(** Optimize a statement; default mode is [Evaluate].

    [virtual_config] is the virtual-index configuration for [Evaluate] mode,
    passed explicitly: the call is then reentrant — it touches no catalog
    state, so any number of what-if evaluations (including concurrent ones)
    can be in flight.  When omitted, [Evaluate] mode falls back to the
    catalog's legacy mutable virtual-index configuration
    ([Catalog.set_virtual_indexes]).  [Normal] mode ignores it. *)
val optimize :
  ?mode:mode -> ?virtual_config:Index_def.t list -> Catalog.t -> Ast.statement -> Plan.t

val statement_cost :
  ?mode:mode -> ?virtual_config:Index_def.t list -> Catalog.t -> Ast.statement -> float

(** Batched what-if evaluation: plan every statement of [stmts] against one
    shared planning context — virtual-index installation, catalog statistic
    warming and index-matching setup happen once per call instead of once
    per statement (the paper's Section VI-C lever).  Results are positional
    and bit-for-bit identical to mapping {!optimize} over [stmts] with the
    same [virtual_config]; the internal fan-out over up to [domains]
    (default 1) domains never changes a plan, a cost, or a tie-break.
    Counters: one [optimize_calls], one [batched_calls], and
    [batch_setup_saved += length stmts − 1] per call. *)
val optimize_batch :
  ?mode:mode ->
  ?domains:int ->
  virtual_config:Index_def.t list ->
  Catalog.t ->
  Ast.statement array ->
  Plan.t array

(** Estimated documents a DML statement modifies, derived from its locating
    binding(s): the most selective binding's estimate ([0.] with no locating
    binding).  Exposed for the cost model's regression tests. *)
val affected_docs_of_bindings : Plan.planned_binding list -> float

(** Enumerate Indexes mode: the statement's basic candidate patterns, i.e.
    every access pattern matched against a universal virtual index. *)
val enumerate_indexes :
  Catalog.t -> Ast.statement -> (string * Pattern.t * Index_def.data_type) list
