(* Table of XML documents.

   The unit of storage is a document in an XML-typed column, as in DB2
   pureXML.  Documents get dense integer ids, never reused; DML bumps a
   generation counter, so that cached statistics and materialized indexes
   can detect staleness, and stamps the id it wrote with it, which
   [touched_since] reads.  Each document is kept only packed
   ([Xia_xml.Packed]), its labels interned in the table's own label table;
   [find] unpacks the exact tree.

   The documents sit in one array indexed by id, a deleted id leaving a
   hole.  A scan visits them in id order, which is the order they were
   inserted, and so allocated, in: consecutive documents lie near each
   other in memory. *)

module Packed = Xia_xml.Packed

type doc_id = int

type t = {
  name : string;
  labels : Packed.labels;
  mutable docs : Packed.t option array;  (* the document of each id below [next_id] *)
  mutable written : int array;  (* last-write generation of each id below [next_id] *)
  mutable next_id : int;
  mutable live : int;
  mutable total_bytes : int;
  mutable total_elements : int;
  mutable generation : int;
}

let create name =
  {
    name;
    labels = Packed.labels ();
    docs = [||];
    written = [||];
    next_id = 0;
    live = 0;
    total_bytes = 0;
    total_elements = 0;
    generation = 0;
  }

(* Every DML operation is one generation, so no two ids share a stamp. *)
let stamp t id =
  t.generation <- t.generation + 1;
  t.written.(id) <- t.generation

(* Sorted in an array: a list sort allocates at every merge level, and
   [Array.sort]'s heap sort raises an exception per sift. *)
let touched_since t gen =
  let ids = Array.make t.next_id 0 and k = ref 0 in
  for id = 0 to t.next_id - 1 do
    if t.written.(id) > gen then begin
      ids.(!k) <- id;
      incr k
    end
  done;
  let ids = Array.sub ids 0 !k in
  Array.stable_sort (fun a b -> Int.compare t.written.(a) t.written.(b)) ids;
  Array.to_list ids

let name t = t.name
let labels t = t.labels
let generation t = t.generation
let doc_count t = t.live
let total_bytes t = t.total_bytes
let total_elements t = t.total_elements

let pages t =
  max 1 ((t.total_bytes + Cost_params.page_size - 1) / Cost_params.page_size)

(* The packed sizes: the executor charges every visit from them, and delete
   and update subtract them from the table totals without re-walking the
   old document. *)
let add_sizes t sign (doc : Packed.t) =
  t.total_bytes <- t.total_bytes + (sign * doc.bytes);
  t.total_elements <- t.total_elements + (sign * Packed.elements doc)

(* Both per-id arrays double when [next_id] reaches their length. *)
let grow t =
  let n = max 1024 (2 * t.next_id) in
  let docs = Array.make n None and written = Array.make n 0 in
  Array.blit t.docs 0 docs 0 t.next_id;
  Array.blit t.written 0 written 0 t.next_id;
  t.docs <- docs;
  t.written <- written

let insert t doc =
  let id = t.next_id in
  let doc = Packed.pack t.labels doc in
  if id = Array.length t.docs then grow t;
  t.next_id <- id + 1;
  t.docs.(id) <- Some doc;
  t.live <- t.live + 1;
  add_sizes t 1 doc;
  stamp t id;
  id

let find_packed t id = if id >= 0 && id < t.next_id then t.docs.(id) else None

let find t id = Option.map Packed.unpack (find_packed t id)

let delete t id =
  match find_packed t id with
  | None -> false
  | Some old ->
      t.docs.(id) <- None;
      t.live <- t.live - 1;
      add_sizes t (-1) old;
      stamp t id;
      true

let update t id (doc : Packed.t) =
  if doc.labels != t.labels then invalid_arg "Doc_store.update: document packed for another table";
  match find_packed t id with
  | None -> false
  | Some old ->
      t.docs.(id) <- Some doc;
      add_sizes t (-1) old;
      add_sizes t 1 doc;
      stamp t id;
      true

let iter f t =
  for id = 0 to t.next_id - 1 do
    match t.docs.(id) with Some doc -> f id doc | None -> ()
  done

let fold f t init =
  let acc = ref init in
  for id = 0 to t.next_id - 1 do
    match t.docs.(id) with Some doc -> acc := f id doc !acc | None -> ()
  done;
  !acc

(* Consed from the highest id down, so the list ascends. *)
let doc_ids t =
  let ids = ref [] in
  for id = t.next_id - 1 downto 0 do
    if Option.is_some t.docs.(id) then ids := id :: !ids
  done;
  !ids
