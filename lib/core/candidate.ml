(* Candidate indexes and the candidate DAG.

   A candidate is a potential index (definition + provenance).  Basic
   candidates come out of the optimizer's Enumerate Indexes mode; general
   candidates are produced by the generalization algorithm, which also wires
   the DAG: a general candidate is the parent of every candidate it was
   generalized from.  Each candidate carries its *affected set* — the
   workload statements whose basic patterns it covers — which drives the
   efficient benefit evaluation of Section VI-C. *)

module Index_def = Xia_index.Index_def
module Index_stats = Xia_index.Index_stats
module Pattern = Xia_xpath.Pattern
module Int_set = Set.Make (Int)

type origin =
  | Basic
  | General

type t = {
  id : int;
  def : Index_def.t;
  origin : origin;
  mutable parents : Int_set.t;   (* candidates generalizing this one *)
  mutable children : Int_set.t;  (* candidates this one was generalized from *)
  mutable affected : Int_set.t;  (* workload statement indices *)
}

module Int_tbl = Hashtbl.Make (Int)

(* Candidates stored densely by id: ids are handed out from 0 in order, so
   [items.(id)] is the candidate with that id for every [id < count].  The
   logical id of each definition maps to the candidate's id, so adding and
   finding build no key string. *)
type set = {
  mutable items : t array;  (* [0, count) filled; the rest is filler *)
  mutable count : int;
  by_lid : int Int_tbl.t;  (* [Index_def.logical_id] -> id *)
}

let create_set () = { items = [||]; count = 0; by_lid = Int_tbl.create 64 }

let find set id = if 0 <= id && id < set.count then Some set.items.(id) else None

let get set id =
  if 0 <= id && id < set.count then set.items.(id)
  else invalid_arg (Printf.sprintf "Candidate.get: unknown id %d" id)

let find_def set (def : Index_def.t) =
  match Int_tbl.find set.by_lid def.lid with
  | id -> Some set.items.(id)
  | exception Not_found -> None

(* Add a candidate (or return the existing one with the same logical
   identity).  An existing basic candidate is never downgraded: re-adding it
   as general keeps its Basic origin. *)
let add set ~origin (def : Index_def.t) =
  match Int_tbl.find set.by_lid def.lid with
  | id -> set.items.(id)
  | exception Not_found ->
      let id = set.count in
      let c =
        {
          id;
          def;
          origin;
          parents = Int_set.empty;
          children = Int_set.empty;
          affected = Int_set.empty;
        }
      in
      if id = Array.length set.items then begin
        (* grow, padding with the new candidate *)
        let items = Array.make (max 16 (2 * id)) c in
        Array.blit set.items 0 items 0 id;
        set.items <- items
      end;
      set.items.(id) <- c;
      set.count <- id + 1;
      Int_tbl.add set.by_lid def.lid id;
      c

let add_edge ~parent ~child =
  if parent.id <> child.id then begin
    parent.children <- Int_set.add child.id parent.children;
    child.parents <- Int_set.add parent.id child.parents
  end

let mark_affected c stmt_index = c.affected <- Int_set.add stmt_index c.affected

(* The affected set as a sorted array, for {!overlap}. *)
let affected_array c = Array.of_list (Int_set.elements c.affected)

(* Merge walk over two sorted arrays from positions [i] and [j].  A
   top-level function typed to [int], so the walk allocates nothing and
   compares without the polymorphic [compare]. *)
let rec overlap_from (a : int array) (b : int array) i j =
  i < Array.length a
  && j < Array.length b
  &&
  let x = a.(i) and y = b.(j) in
  x = y || if x < y then overlap_from a b (i + 1) j else overlap_from a b i (j + 1)

let overlap a b = overlap_from a b 0 0

(* The candidates in id order that satisfy [keep]. *)
let select keep set =
  let rec from i acc =
    if i < 0 then acc
    else
      let c = set.items.(i) in
      from (i - 1) (if keep c then c :: acc else acc)
  in
  from (set.count - 1) []

let to_list set = select (fun _ -> true) set
let basics set = select (fun c -> c.origin = Basic) set
let generals set = select (fun c -> c.origin = General) set

let cardinality set = set.count

(* Roots of the DAG: candidates nobody generalizes further. *)
let roots set = select (fun c -> Int_set.is_empty c.parents) set

let children_of set c = List.filter_map (find set) (Int_set.elements c.children)
let parents_of set c = List.filter_map (find set) (Int_set.elements c.parents)

let is_general c = c.origin = General

(* Derived statistics and size: virtual-index statistics from the data
   statistics of the candidate's table. *)
let stats catalog (c : t) =
  Index_stats.derive_cached (Xia_index.Catalog.stats catalog c.def.Index_def.table) c.def

let size catalog c = (stats catalog c).Index_stats.size_bytes

let config_size catalog config =
  List.fold_left (fun acc c -> acc + size catalog c) 0 config

(* Recompute affected sets from basic candidates: a candidate affects every
   statement one of whose basic patterns it covers. *)
let compute_affected set =
  let basic = basics set in
  List.iter
    (fun c ->
      if is_general c then begin
        let affected =
          List.fold_left
            (fun acc (b : t) ->
              if Index_def.covers ~general:c.def ~specific:b.def then
                Int_set.union acc b.affected
              else acc)
            c.affected basic
        in
        c.affected <- affected
      end)
    (to_list set)

let pp ppf c =
  Fmt.pf ppf "#%d %s %a AS %a [%s]%s" c.id c.def.Index_def.table Pattern.pp
    c.def.Index_def.pattern Index_def.pp_data_type c.def.Index_def.dtype
    (String.concat "," (List.map string_of_int (Int_set.elements c.affected)))
    (match c.origin with Basic -> "" | General -> " (general)")
