(* Table of XML documents.

   The unit of storage is a document in an XML-typed column, as in DB2
   pureXML.  Documents get dense integer ids; DML bumps a generation counter,
   so that cached statistics and materialized indexes can detect staleness,
   and stamps the id it wrote with it, which [touched_since] reads.
   Each document is kept only packed ([Xia_xml.Packed]), its labels
   interned in the table's own label table; [find] unpacks the exact tree. *)

module Packed = Xia_xml.Packed

type doc_id = int

type t = {
  name : string;
  labels : Packed.labels;
  docs : (doc_id, Packed.t) Hashtbl.t;
  mutable next_id : int;
  mutable total_bytes : int;
  mutable total_elements : int;
  mutable generation : int;
  mutable written : int array;  (* last-write generation of each id below [next_id] *)
}

let create name =
  {
    name;
    labels = Packed.labels ();
    docs = Hashtbl.create 1024;
    next_id = 0;
    total_bytes = 0;
    total_elements = 0;
    generation = 0;
    written = [||];
  }

(* Every DML operation is one generation, so no two ids share a stamp. *)
let stamp t id =
  t.generation <- t.generation + 1;
  if id >= Array.length t.written then begin
    let written = Array.make (max 1024 (2 * id)) 0 in
    Array.blit t.written 0 written 0 (Array.length t.written);
    t.written <- written
  end;
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
let doc_count t = Hashtbl.length t.docs
let total_bytes t = t.total_bytes
let total_elements t = t.total_elements

let pages t =
  max 1 ((t.total_bytes + Cost_params.page_size - 1) / Cost_params.page_size)

(* The packed sizes: the executor charges every visit from them, and delete
   and replace subtract them from the table totals without re-walking the
   old document. *)
let add_sizes t sign (doc : Packed.t) =
  t.total_bytes <- t.total_bytes + (sign * doc.bytes);
  t.total_elements <- t.total_elements + (sign * Packed.elements doc)

let insert t doc =
  let id = t.next_id in
  let doc = Packed.pack t.labels doc in
  t.next_id <- id + 1;
  Hashtbl.replace t.docs id doc;
  add_sizes t 1 doc;
  stamp t id;
  id

let find_packed t id = Hashtbl.find_opt t.docs id

let find t id = Option.map Packed.unpack (find_packed t id)

let delete t id =
  match Hashtbl.find_opt t.docs id with
  | None -> false
  | Some old ->
      Hashtbl.remove t.docs id;
      add_sizes t (-1) old;
      stamp t id;
      true

let update t id (doc : Packed.t) =
  if doc.labels != t.labels then invalid_arg "Doc_store.update: document packed for another table";
  match Hashtbl.find_opt t.docs id with
  | None -> false
  | Some old ->
      Hashtbl.replace t.docs id doc;
      add_sizes t (-1) old;
      add_sizes t 1 doc;
      stamp t id;
      true

let replace t id doc = Hashtbl.mem t.docs id && update t id (Packed.pack t.labels doc)

let iter f t = Hashtbl.iter f t.docs

let fold f t init = Hashtbl.fold f t.docs init

(* Sorted: hash iteration order must not leak into a result the advisor
   may return or cache (lint N001). *)
let doc_ids t = List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) t.docs [])

let avg_doc_bytes t =
  let n = doc_count t in
  if n = 0 then 0.0 else float_of_int t.total_bytes /. float_of_int n

let avg_doc_elements t =
  let n = doc_count t in
  if n = 0 then 0.0 else float_of_int t.total_elements /. float_of_int n
