(* The cost model: its prices and every charge built from them, shared by
   the optimizer's estimates, the executor's simulated cost and index
   maintenance.  Units are abstract "cost units" roughly proportional to
   microseconds on a 2000s-era server, in the spirit of the DB2 cost model
   the paper relies on: sequential I/O is much cheaper per page than random
   I/O, and CPU work is orders of magnitude cheaper than I/O. *)

let page_size = 4096

(* I/O *)
let sequential_page_cost = 80.0
let random_page_cost = 900.0

(* Fraction of random page reads served by the buffer pool. *)
let buffer_hit_ratio = 0.3

let effective_random_page_cost = random_page_cost *. (1.0 -. buffer_hit_ratio)

(* CPU.  XML navigation is expensive per node (tree traversal, name tests,
   type checks) — this is precisely why XML index advisors matter: the
   no-index plan pays it for every node of every document. *)
let cpu_per_node = 6.0         (* visiting one node during navigation *)
let cpu_per_predicate = 2.0    (* evaluating one predicate on one node *)
let cpu_per_index_entry = 0.25 (* scanning one index leaf entry *)
let cpu_per_result = 1.0       (* constructing one result item *)

(* Index entry layout: key bytes + record id + page overhead share. *)
let rid_bytes = 12
let entry_overhead_bytes = 6
let leaf_fill_factor = 0.70
let key_prefix_compression = 0.75 (* average fraction of key bytes stored *)

(* B-tree update cost per maintained entry (insert/delete), including the
   amortized descend and page write. *)
let index_update_entry_cost = 25.0

(* ---------- the formulas ----------

   Each written once and inlined into the charges below.  The default build
   inlines nothing across modules, so a charge takes ints or floats its
   caller has boxed anyway, and returns one boxed float (DESIGN.md §6);
   the per-document charges return nothing and add to a meter instead. *)

let[@inline] doc_pages bytes = Float.max 1.0 (bytes /. float_of_int page_size)
let[@inline] node_cpu elements = elements *. cpu_per_node
let[@inline] random_io pages = pages *. effective_random_page_cost
let[@inline] sequential_io pages = pages *. sequential_page_cost
let[@inline] entries_cpu entries = entries *. cpu_per_index_entry

let[@inline] verify_cpu ~elements ~predicates =
  node_cpu elements +. (float_of_int (predicates + 1) *. cpu_per_predicate)

let[@inline] table_scan_io pages = sequential_io (float_of_int pages)
let[@inline] descent levels = float_of_int levels *. effective_random_page_cost

(* ---------- the optimizer's estimates ---------- *)

let avg_doc_pages ~bytes ~docs =
  if docs = 0 then 1.0 else doc_pages (float_of_int bytes /. float_of_int docs)

let doc_scan ~pages ~docs ~verify = table_scan_io pages +. (float_of_int docs *. verify)
let fetch ~pages ~verify = random_io pages +. verify
let result_cpu docs = docs *. cpu_per_result

type lookup_estimate = { entries_matched : float; docs_matched : float; total_entries : float }
type index_scan = { lookup : float; docs_fetched : float; rid_cpu : float }

let index_scan ~levels ~leaf_pages ~entries est =
  let leaf_frac = est.entries_matched /. float_of_int entries in
  {
    lookup =
      descent levels
      +. sequential_io (float_of_int leaf_pages *. leaf_frac)
      +. entries_cpu est.entries_matched;
    docs_fetched = est.docs_matched;
    rid_cpu = entries_cpu est.docs_matched;
  }

let insert_cost ~bytes ~elements =
  sequential_io (doc_pages (float_of_int bytes)) +. node_cpu (float_of_int elements)

let modify_cost ~pages ~elements ~factor = (sequential_io pages *. factor) +. node_cpu elements

(* ---------- the executor's charges ---------- *)

let probe_cpu entries = entries_cpu (float_of_int entries)
let doc_write_io bytes = sequential_io (doc_pages (float_of_int bytes))

(* The charges paid once per visited document add themselves to the meter
   here, where the formulas inline, so no float crosses a module boundary
   and a visit allocates nothing.  The sum is the one the executor formed
   from the returned floats: the same terms added in the same order. *)
type meter = { mutable cost : float }

let charge_doc_verify meter ~elements ~predicates =
  meter.cost <- meter.cost +. verify_cpu ~elements:(float_of_int elements) ~predicates

let charge_doc_fetch meter bytes = meter.cost <- meter.cost +. random_io (doc_pages (float_of_int bytes))

(* ---------- index maintenance ---------- *)

let upkeep ~entries_per_doc ~docs ~levels =
  let touched = entries_per_doc *. docs in
  if touched <= 0.0 then 0.0
  else touched *. (index_update_entry_cost +. entries_cpu (float_of_int levels))
