(** The cost-based query optimizer, including the two advisor modes the paper
    adds to the database server: Enumerate Indexes and Evaluate Indexes. *)

module Catalog = Xia_index.Catalog
module Index_def = Xia_index.Index_def
module Ast = Xia_query.Ast
module Pattern = Xia_xpath.Pattern

type mode =
  | Normal    (** plan over real (materialized) indexes *)
  | Evaluate  (** plan over a virtual-index configuration *)

type counters = {
  optimize_calls : int Atomic.t;
      (** optimizer invocations: one per {!optimize} and one per
          {!optimize_prepared} or {!optimize_costs} (however many
          statements the batch plans) *)
  enumerate_calls : int Atomic.t;
  plans_considered : int Atomic.t;
  batch_setup_saved : int Atomic.t;
      (** per-statement setup phases avoided by batching: Σ (batch size − 1).
          [optimize_calls + batch_setup_saved] is the raw-equivalent call
          count the per-statement protocol would have made. *)
}

(** Global optimizer-call accounting (the quantity the paper's Section VI-C
    minimizes).  The fields are [Atomic.t] only because the advisor
    benchmark reads them with [Atomic.get]. *)
val counters : counters

val reset_counters : unit -> unit

(** Index matching: can [def] serve [access]?  Same table and data type, and
    the index pattern covers the access pattern. *)
val index_matches : Index_def.t -> Xia_query.Rewriter.access -> bool

(** A statement prepared for planning: rewritten once, with every number
    no index configuration can change (per binding: result estimate, result
    CPU, document-scan cost, filter count; per access: its interned pattern
    id), and a memo of index-scan parts per (access, index
    logical id) pair that matches.  A prepared statement is bound to the
    catalog statistics current when it was prepared and to its
    [index_cost_factor]: prepare again after the data changes. *)
type prepared

(** Rewrite [stmt] and derive its configuration-independent costs.  Reads
    the catalog's statistics, collecting any that are missing or stale.

    [index_cost_factor] (default [1.0]) is the quality-evaluation harness's
    cost-model perturbation ([lib/eval]): every index-plan cost of the
    prepared statement is multiplied by it before competing with the
    document scan.  [1.0] is a bitwise no-op; a large factor makes index
    plans lose every comparison, collapsing recommendations to the empty
    configuration, the deliberate regression the eval ratchet
    ([tools/ratchet.ml]) must catch.  {!optimize} and {!statement_cost}
    prepare at [1.0].
    @raise Invalid_argument when the statement names an unknown table. *)
val prepare : ?index_cost_factor:float -> _ Catalog.t -> Ast.statement -> prepared

(** The statement's distinct access keys, in access order.  An access's key
    is {!Index_def.key_id} of its table, data type and pattern: the logical
    id of the index on exactly that access.  Interned on each call (a
    caller asking often keeps them). *)
val access_keys : prepared -> int array

(** [key_matches def key]: does [def] serve the accesses with key [key]
    ({!index_matches} on each of them)?  Allocates nothing. *)
val key_matches : Index_def.t -> int -> bool

(** Optimize a statement: {!prepare} it, then plan it once.  Default mode
    is [Evaluate].  [virtual_config] (default none) is the virtual-index
    configuration [Evaluate] mode plans against; [Normal] mode plans over
    the catalog's real indexes and ignores it.  The call installs nothing
    in the catalog (it only reads statistics, collecting missing or stale
    ones as {!prepare} does), so a what-if evaluation leaves no virtual
    index behind for the next one to see. *)
val optimize :
  ?mode:mode -> ?virtual_config:Index_def.t list -> _ Catalog.t -> Ast.statement -> Plan.t

val statement_cost :
  ?mode:mode -> ?virtual_config:Index_def.t list -> _ Catalog.t -> Ast.statement -> float

(** Batched what-if evaluation: plan every prepared statement against one
    virtual-index configuration (Evaluate mode) — the visible indexes are
    gathered once per call, not once per statement (the paper's Section
    VI-C lever).  Results are positional and bit-for-bit identical to
    {!optimize} on each statement with the same [virtual_config]: on an
    exact cost tie the index listed first wins, in both.  The call takes
    no catalog: every statistic it reads was bound by {!prepare}.
    Counters: one [optimize_calls] and
    [batch_setup_saved += length prepared − 1] per call. *)
val optimize_prepared : virtual_config:Index_def.t list -> prepared array -> Plan.t array

(** {!optimize_prepared} keeping only each statement's [total_cost]: the
    same walk, same counters and observability, bit-for-bit the same costs,
    but no {!Plan.t} is built — the planner keeps each binding's winner as
    numbers.  The what-if search reads only these costs. *)
val optimize_costs : virtual_config:Index_def.t list -> prepared array -> float array

(** Estimated documents a prepared DML statement modifies ([0.] for a
    query): no index configuration changes it. *)
val affected_docs : prepared -> float

(** Enumerate Indexes mode: the statement's basic candidate patterns, i.e.
    every access pattern matched against a universal virtual index. *)
val enumerate_indexes : Ast.statement -> (string * Pattern.t * Index_def.data_type) list
