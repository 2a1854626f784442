(* Interning and read-mostly concurrent memoization.

   The advisor's hot paths (index-to-path matching, benefit fingerprints,
   cache keys) used to rebuild and rehash pattern-key *strings* on every
   lookup.  An interner maps those keys to dense integer ids once; everything
   downstream hashes and compares ints.

   Concurrency model: the id table is an immutable bucket map published
   through an [Atomic]; readers never lock.  Writers serialize on a [Mutex],
   re-check under the lock, extend the map and publish the new snapshot with
   [Atomic.set].  Each interner allocates its ids from its own [Atomic]
   counter, from 0 up, so ids are dense per interner and two interners hand
   out the same ids; because allocation order can vary between runs (and
   between [--domains] settings), ids must only ever be used for identity —
   hashing, equality, cache keys, array indexes — never for ordering
   anything user-visible.

   [Cache] reuses the same snapshot discipline for pure memoization: a miss
   computes outside the lock (duplicated work is safe for pure functions) and
   publishes the first result.  [Dense] and [Pairs] memoize pure functions of
   one or two dense ids in arrays indexed by the ids themselves.

   A hit allocates nothing anywhere here: lookups signal absence with
   [raise_notrace Not_found] or an empty cell, never with an option, and the
   memo tables take the function to run on a miss together with its
   arguments, so callers need not build a closure per lookup. *)

module Int_map = Map.Make (Int)

type 'a t = {
  buckets : ('a * int) list Int_map.t Atomic.t;  (* hash -> collision list *)
  values : 'a array Atomic.t;                    (* id -> key, dense *)
  count : int Atomic.t;                          (* ids allocated so far *)
  lock : Mutex.t;
  hash : 'a -> int;
  equal : 'a -> 'a -> bool;
}

let create ?(hash = Hashtbl.hash) ?(equal = ( = )) () =
  {
    buckets = Atomic.make Int_map.empty;
    values = Atomic.make [||];
    count = Atomic.make 0;
    lock = Mutex.create ();
    hash;
    equal;
  }

(* The id of [key] in a collision list, or -1.  Toplevel, so a lookup
   builds no closure. *)
let rec scan_id equal key = function
  | [] -> -1
  | (k, id) :: rest -> if equal k key then id else scan_id equal key rest

(* The id of [key], or -1: no option is built. *)
let find_id t key =
  match Int_map.find (t.hash key) (Atomic.get t.buckets) with
  | exception Not_found -> -1
  | bucket -> scan_id t.equal key bucket

let find t key =
  let id = find_id t key in
  if id < 0 then None else Some id

let intern t key =
  let id = find_id t key in
  if id >= 0 then id
  else begin
    Mutex.lock t.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.lock)
      (fun () ->
        let id = find_id t key in
        if id >= 0 then id (* lost the race: another writer added it *)
        else begin
          let id = Atomic.fetch_and_add t.count 1 in
          let h = t.hash key in
          let map = Atomic.get t.buckets in
          let bucket = Option.value ~default:[] (Int_map.find_opt h map) in
          let old = Atomic.get t.values in
          let values =
            if id < Array.length old then old
            else begin
              let grown = Array.make (max 64 (2 * (id + 1))) key in
              Array.blit old 0 grown 0 (Array.length old);
              grown
            end
          in
          values.(id) <- key;
          (* Publish the value array before the bucket map: a reader that
             obtains [id] must find [values.(id)] valid. *)
          Atomic.set t.values values;
          Atomic.set t.buckets (Int_map.add h ((key, id) :: bucket) map);
          id
        end)
  end

let value t id = (Atomic.get t.values).(id)

let size t = Atomic.get t.count

(* ---------------------------------------------------------------- labels -- *)

(* The global label interner: element and attribute labels of rooted data
   paths ("Security", "@id", ...).  Shared by the path trie and the
   enumeration dedup tables. *)
let labels : string t = create ~hash:Hashtbl.hash ~equal:String.equal ()

let label s = intern labels s
let label_value id = value labels id

(* ----------------------------------------------------------------- Cache -- *)

module Cache = struct
  (* Read-mostly concurrent memo table for pure functions.  Same snapshot
     discipline as the interner; on a miss the computation runs *outside*
     the lock, so two domains racing on the same key may both compute — the
     first to publish wins, which is safe (and deterministic) because cached
     functions are pure. *)
  type ('k, 'v) t = {
    buckets : ('k * 'v) list Int_map.t Atomic.t;
    lock : Mutex.t;
    hash : 'k -> int;
    equal : 'k -> 'k -> bool;
  }

  let create ?(hash = Hashtbl.hash) ?(equal = ( = )) () =
    { buckets = Atomic.make Int_map.empty; lock = Mutex.create (); hash; equal }

  let rec scan equal key = function
    | [] -> raise_notrace Not_found
    | (k, v) :: rest -> if equal k key then v else scan equal key rest

  (* The value cached for [key]; [Not_found] (raised without a backtrace)
     when there is none. *)
  let find_exn t key = scan t.equal key (Int_map.find (t.hash key) (Atomic.get t.buckets))

  let find t key = match find_exn t key with v -> Some v | exception Not_found -> None

  let find_or_compute t key f a b =
    match find_exn t key with
    | v -> v
    | exception Not_found ->
        let v = f a b in
        Mutex.lock t.lock;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock t.lock)
          (fun () ->
            match find_exn t key with
            | v' -> v' (* keep the first published result *)
            | exception Not_found ->
                let h = t.hash key in
                let map = Atomic.get t.buckets in
                let bucket = Option.value ~default:[] (Int_map.find_opt h map) in
                Atomic.set t.buckets (Int_map.add h ((key, v) :: bucket) map);
                v)
end

(* ----------------------------------------------------------------- Dense -- *)

(* [slots], the array published in [table], or, when it is too short for
   index [i], a copy twice as long that shares its slots (new ones start at
   [empty]), published in its place.  Called under the table's mutex. *)
let reaching table slots i empty =
  if i < Array.length slots then slots
  else begin
    let n = Array.length slots in
    let grown =
      Array.init (max 64 (2 * (i + 1))) (fun j -> if j < n then slots.(j) else Atomic.make empty)
    in
    Atomic.set table grown;
    grown
  end

module Dense = struct
  (* Memo of a pure function of one dense id.  The table is an array of
     [Atomic] cells, itself published through an [Atomic]: readers index
     the current array and read the cell without a lock.  A writer, under
     the mutex, sets the cell; when the id is past the end it first
     publishes a copy twice as long that shares the existing cells, so a
     value set in a cell is visible through every snapshot holding it.  A
     reader that sees an empty cell recomputes the same pure result. *)
  type 'v t = {
    cells : 'v option Atomic.t array Atomic.t;
    lock : Mutex.t;
  }

  let create () = { cells = Atomic.make [||]; lock = Mutex.create () }

  let cell cells id = if id < Array.length cells then Atomic.get cells.(id) else None

  let find_or_compute t id f a =
    match cell (Atomic.get t.cells) id with
    | Some v -> v
    | None ->
        let v = f a id in
        Mutex.lock t.lock;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock t.lock)
          (fun () ->
            let current = Atomic.get t.cells in
            match cell current id with
            | Some v' -> v' (* keep the first published result *)
            | None ->
                Atomic.set (reaching t.cells current id None).(id) (Some v);
                v)
end

(* ----------------------------------------------------------------- Pairs -- *)

module Pairs = struct
  (* Memo of a pure boolean relation over pairs of dense ids: row [a] is a
     byte string indexed by [b], each cell unknown, false or true, held in
     an [Atomic] slot of an array published like [Dense]'s.  Cells are
     bytes, so a table over n ids costs at most n^2 bytes, and only for the
     rows actually queried.  A writer, under the mutex, fills an unknown
     cell of a published row in place — one byte, which a racing reader
     sees either still unknown or set — or, when the row is too short,
     publishes a copy twice as wide in the row's slot.  A reader that meets
     an unknown cell, in a current or an older row, recomputes the same
     pure result. *)
  type t = {
    rows : Bytes.t Atomic.t array Atomic.t;
    lock : Mutex.t;
  }

  let unknown = '\000'
  let no = '\001'
  let yes = '\002'

  let create () = { rows = Atomic.make [||]; lock = Mutex.create () }

  let cell rows a b =
    if a < Array.length rows then begin
      let row = Atomic.get rows.(a) in
      if b < Bytes.length row then Bytes.get row b else unknown
    end
    else unknown

  let find_or_compute t a b f =
    let c = cell (Atomic.get t.rows) a b in
    if c <> unknown then c = yes
    else begin
      let v = f a b in
      Mutex.lock t.lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.lock)
        (fun () ->
          let current = Atomic.get t.rows in
          let c = cell current a b in
          if c <> unknown then c = yes (* keep the first published result *)
          else begin
            let byte = if v then yes else no in
            let slot = (reaching t.rows current a Bytes.empty).(a) in
            let row = Atomic.get slot in
            if b < Bytes.length row then Bytes.set row b byte
            else begin
              let wider = Bytes.make (max 64 (2 * (b + 1))) unknown in
              Bytes.blit row 0 wider 0 (Bytes.length row);
              Bytes.set wider b byte;
              Atomic.set slot wider
            end;
            v
          end)
    end
end
