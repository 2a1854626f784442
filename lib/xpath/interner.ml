(* Interning and memoization.

   The advisor's hot paths (index-to-path matching, benefit fingerprints,
   cache keys) used to rebuild and rehash pattern-key *strings* on every
   lookup.  An interner maps those keys to dense integer ids once; everything
   downstream hashes and compares ints.

   The id table is an immutable bucket map, replaced on each new key.  Each
   interner allocates its ids from its own counter, from 0 up, so ids are
   dense per interner and two interners hand out the same ids; because
   allocation order depends on the order keys are first seen, ids must only
   ever be used for identity — hashing, equality, cache keys, array
   indexes — never for ordering anything user-visible.

   [Cache] keeps the same bucket map for pure memoization.  [Dense] and
   [Pairs] memoize pure functions of one or two dense ids in arrays indexed
   by the ids themselves.  A memo's function may itself consult the table
   it fills (pattern containment recurses), so every table is re-read after
   the function returns: the first stored result wins.

   A hit allocates nothing anywhere here: lookups signal absence with
   [raise_notrace Not_found] or an empty cell, never with an option, and the
   memo tables take the function to run on a miss together with its
   arguments, so callers need not build a closure per lookup. *)

module Int_map = Map.Make (Int)

type 'a t = {
  mutable buckets : ('a * int) list Int_map.t;  (* hash -> collision list *)
  mutable values : 'a array;                    (* id -> key, dense *)
  mutable count : int;                          (* ids allocated so far *)
  hash : 'a -> int;
  equal : 'a -> 'a -> bool;
}

let create ?(hash = Hashtbl.hash) ?(equal = ( = )) () =
  { buckets = Int_map.empty; values = [||]; count = 0; hash; equal }

(* The id of [key] in a collision list, or -1.  Toplevel, so a lookup
   builds no closure. *)
let rec scan_id equal key = function
  | [] -> -1
  | (k, id) :: rest -> if equal k key then id else scan_id equal key rest

(* The id of [key], or -1: no option is built. *)
let find_id t key =
  match Int_map.find (t.hash key) t.buckets with
  | exception Not_found -> -1
  | bucket -> scan_id t.equal key bucket

let intern t key =
  let id = find_id t key in
  if id >= 0 then id
  else begin
    let id = t.count in
    t.count <- id + 1;
    let h = t.hash key in
    let bucket = Option.value ~default:[] (Int_map.find_opt h t.buckets) in
    if id >= Array.length t.values then begin
      let grown = Array.make (max 64 (2 * (id + 1))) key in
      Array.blit t.values 0 grown 0 (Array.length t.values);
      t.values <- grown
    end;
    t.values.(id) <- key;
    t.buckets <- Int_map.add h ((key, id) :: bucket) t.buckets;
    id
  end

let value t id = t.values.(id)

(* ---------------------------------------------------------------- labels -- *)

(* The global label interner: element and attribute labels of rooted data
   paths ("Security", "@id", ...).  Shared by the path trie and the
   enumeration dedup tables. *)
let labels : string t = create ~hash:Hashtbl.hash ~equal:String.equal ()

let label s = intern labels s
let label_value id = value labels id

(* ----------------------------------------------------------------- Cache -- *)

module Cache = struct
  (* Memo table for pure functions, with the interner's bucket map. *)
  type ('k, 'v) t = {
    mutable buckets : ('k * 'v) list Int_map.t;
    hash : 'k -> int;
    equal : 'k -> 'k -> bool;
  }

  let create ?(hash = Hashtbl.hash) ?(equal = ( = )) () = { buckets = Int_map.empty; hash; equal }

  let rec scan equal key = function
    | [] -> raise_notrace Not_found
    | (k, v) :: rest -> if equal k key then v else scan equal key rest

  (* The value cached for [key]; [Not_found] (raised without a backtrace)
     when there is none. *)
  let find_exn t key = scan t.equal key (Int_map.find (t.hash key) t.buckets)

  let find_or_compute t key f a b =
    match find_exn t key with
    | v -> v
    | exception Not_found -> (
        let v = f a b in
        match find_exn t key with
        | v' -> v' (* [f] stored a result for [key] first *)
        | exception Not_found ->
            let h = t.hash key in
            let bucket = Option.value ~default:[] (Int_map.find_opt h t.buckets) in
            t.buckets <- Int_map.add h ((key, v) :: bucket) t.buckets;
            v)
end

(* ----------------------------------------------------------------- Dense -- *)

(* [slots], or, when it is too short for index [i], a copy twice as long
   holding its slots, the new ones [empty]. *)
let reaching slots i empty =
  if i < Array.length slots then slots
  else begin
    let grown = Array.make (max 64 (2 * (i + 1))) empty in
    Array.blit slots 0 grown 0 (Array.length slots);
    grown
  end

module Dense = struct
  (* Memo of a pure function of one dense id, in an array indexed by the
     id and grown on demand. *)
  type 'v t = { mutable cells : 'v option array }

  let create () = { cells = [||] }

  let cell cells id = if id < Array.length cells then cells.(id) else None

  let find_or_compute t id f a =
    match cell t.cells id with
    | Some v -> v
    | None -> (
        let v = f a id in
        match cell t.cells id with
        | Some v' -> v' (* [f] stored a result for [id] first *)
        | None ->
            t.cells <- reaching t.cells id None;
            t.cells.(id) <- Some v;
            v)
end

(* ----------------------------------------------------------------- Pairs -- *)

module Pairs = struct
  (* Memo of a pure boolean relation over pairs of dense ids: row [a] is a
     byte string indexed by [b], each cell unknown, false or true.  Cells
     are bytes, so a table over n ids costs at most n^2 bytes, and only for
     the rows actually queried.  A row too short for [b] is replaced by a
     copy twice as wide. *)
  type t = { mutable rows : Bytes.t array }

  let unknown = '\000'
  let no = '\001'
  let yes = '\002'

  let create () = { rows = [||] }

  let cell rows a b =
    if a < Array.length rows then begin
      let row = rows.(a) in
      if b < Bytes.length row then Bytes.get row b else unknown
    end
    else unknown

  let find_or_compute t a b f =
    let c = cell t.rows a b in
    if c <> unknown then c = yes
    else begin
      let v = f a b in
      let c = cell t.rows a b in
      if c <> unknown then c = yes (* [f] stored a result for [(a, b)] first *)
      else begin
        let byte = if v then yes else no in
        t.rows <- reaching t.rows a Bytes.empty;
        let row = t.rows.(a) in
        if b < Bytes.length row then Bytes.set row b byte
        else begin
          let wider = Bytes.make (max 64 (2 * (b + 1))) unknown in
          Bytes.blit row 0 wider 0 (Bytes.length row);
          Bytes.set wider b byte;
          t.rows.(a) <- wider
        end;
        v
      end
    end
end
