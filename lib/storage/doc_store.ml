(* Table of XML documents.

   The unit of storage is a document in an XML-typed column, as in DB2
   pureXML.  Documents get stable integer ids; DML bumps a generation counter
   so that cached statistics and materialized indexes can detect staleness. *)

type doc_id = int

(* One DML event, tagged with the generation it produced.  Replacement is
   logged as a delete followed by an insert. *)
type change = {
  gen : int;
  kind : [ `Insert | `Delete ];
  doc_id : doc_id;
  doc : Xia_xml.Types.t;
}

(* Bound on the retained change log; beyond it consumers must fall back to a
   full rebuild. *)
let log_limit = 20_000

(* A stored document with its sizes, computed once on the way in: the
   executor charges every visit from them, and delete and replace subtract
   them from the table totals without re-walking the old document. *)
type entry = {
  doc : Xia_xml.Types.t;
  elements : int;
  bytes : int;
}

type t = {
  name : string;
  docs : (doc_id, entry) Hashtbl.t;
  mutable next_id : int;
  mutable total_bytes : int;
  mutable total_elements : int;
  mutable generation : int;
  mutable log : change list;      (* newest first *)
  mutable log_floor : int;        (* generations <= floor are not in the log *)
  mutable log_size : int;
}

let create name =
  {
    name;
    docs = Hashtbl.create 1024;
    next_id = 0;
    total_bytes = 0;
    total_elements = 0;
    generation = 0;
    log = [];
    log_floor = 0;
    log_size = 0;
  }

let record t kind doc_id doc =
  if t.log_size >= log_limit then begin
    (* Truncate: drop history, remember that it is incomplete. *)
    t.log <- [];
    t.log_size <- 0;
    t.log_floor <- t.generation
  end;
  t.log <- { gen = t.generation; kind; doc_id; doc } :: t.log;
  t.log_size <- t.log_size + 1

(* Changes with generation > [gen], oldest first; [None] when the log no
   longer reaches back that far. *)
let changes_since t gen =
  if gen < t.log_floor then None
  else
    Some (List.rev (List.filter (fun c -> c.gen > gen) t.log))

let name t = t.name
let generation t = t.generation
let doc_count t = Hashtbl.length t.docs
let total_bytes t = t.total_bytes
let total_elements t = t.total_elements

let pages t =
  max 1 ((t.total_bytes + Cost_params.page_size - 1) / Cost_params.page_size)

let entry doc =
  { doc; elements = Xia_xml.Types.count_elements doc; bytes = Xia_xml.Types.byte_size doc }

let add_sizes t sign e =
  t.total_bytes <- t.total_bytes + (sign * e.bytes);
  t.total_elements <- t.total_elements + (sign * e.elements)

let insert t doc =
  let id = t.next_id in
  let e = entry doc in
  t.next_id <- id + 1;
  Hashtbl.replace t.docs id e;
  add_sizes t 1 e;
  t.generation <- t.generation + 1;
  record t `Insert id doc;
  id

let find_entry t id = Hashtbl.find_opt t.docs id

let find t id = Option.map (fun e -> e.doc) (find_entry t id)

let delete t id =
  match Hashtbl.find_opt t.docs id with
  | None -> false
  | Some old ->
      Hashtbl.remove t.docs id;
      add_sizes t (-1) old;
      t.generation <- t.generation + 1;
      record t `Delete id old.doc;
      true

let replace t id doc =
  match Hashtbl.find_opt t.docs id with
  | None -> false
  | Some old ->
      let e = entry doc in
      Hashtbl.replace t.docs id e;
      add_sizes t (-1) old;
      add_sizes t 1 e;
      t.generation <- t.generation + 1;
      record t `Delete id old.doc;
      record t `Insert id doc;
      true

let iter f t = Hashtbl.iter (fun id e -> f id e.doc) t.docs

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
