(* Database catalog: tables with their statistics and their real indexes.

   Virtual indexes are not catalog state: the optimizer's Evaluate mode takes
   a virtual-index configuration with each batch and derives its statistics
   from the data statistics kept here.  That plays the role of the paper's
   server-side extension ("virtual indexes are added to the database catalog
   and to all the internal data structures of the optimizer, but they are
   not physically created") without a shared mutable configuration, so a
   what-if evaluation never sees the virtual indexes of an earlier one. *)

module Doc_store = Xia_storage.Doc_store
module Path_stats = Xia_storage.Path_stats

type table = {
  store : Doc_store.t;
  mutable stats : Path_stats.t option;
  mutable real_indexes : Physical_index.t list;
}

(* The capability parameter is phantom: the interface alone decides which
   functions need a writable catalog. *)
type 'cap t = (string, table) Hashtbl.t

let create () = Hashtbl.create 8
let read_only t = t

let add_table t store =
  let name = Doc_store.name store in
  if Hashtbl.mem t name then
    invalid_arg (Printf.sprintf "Catalog.add_table: table %s already exists" name);
  Hashtbl.add t name { store; stats = None; real_indexes = [] }

let table_exn t name =
  match Hashtbl.find_opt t name with
  | Some tbl -> tbl
  | None -> invalid_arg (Printf.sprintf "Catalog: unknown table %s" name)

let table_names t =
  List.sort String.compare (Hashtbl.fold (fun name _ acc -> name :: acc) t [])

let store t name = (table_exn t name).store
let pages t name = Doc_store.pages (store t name)

(* RUNSTATS: (re)collect statistics for one table. *)
let runstats t name =
  let tbl = table_exn t name in
  let stats = Path_stats.collect tbl.store in
  tbl.stats <- Some stats;
  stats

let runstats_all t = List.iter (fun name -> ignore (runstats t name)) (table_names t)

(* Statistics, collected on first use and refreshed when stale. *)
let stats t name =
  let tbl = table_exn t name in
  match tbl.stats with
  | Some s when s.Path_stats.generation = Doc_store.generation tbl.store -> s
  | Some _ | None -> runstats t name

let create_index t (def : Index_def.t) =
  let tbl = table_exn t def.table in
  if
    List.exists (fun pi -> Index_def.same (Physical_index.def pi) def) tbl.real_indexes
  then
    invalid_arg
      (Printf.sprintf "Catalog.create_index: duplicate of %s" (Index_def.name def));
  let pi = Physical_index.build tbl.store def in
  tbl.real_indexes <- pi :: tbl.real_indexes;
  pi

let drop_all_indexes t =
  Hashtbl.iter (fun _ tbl -> tbl.real_indexes <- []) t

(* Bring stale real indexes up to date; one [refresh] per table shares
   the table's touched documents among its indexes. *)
let refresh_indexes t =
  Hashtbl.iter
    (fun _ tbl ->
      let gen = Doc_store.generation tbl.store in
      if List.exists (fun pi -> Physical_index.built_generation pi <> gen) tbl.real_indexes then
        tbl.real_indexes <- List.map (Physical_index.refresh tbl.store) tbl.real_indexes)
    t

let real_indexes t name = (table_exn t name).real_indexes
