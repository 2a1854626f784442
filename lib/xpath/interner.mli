(** Interning (key → dense int id) and memoization.

    Each interner numbers its keys densely from 0, so ids are unique within
    one interner only.  They are stable within a run but their allocation
    order follows the order keys are first seen — use them for identity
    (hashing, cache keys, array indexes) only, never to order anything
    user-visible.

    A hit allocates nothing: no lookup here builds an option on its way to
    a found value, and the memo tables take the function to run on a miss
    with its arguments, so a caller passes a toplevel function instead of
    building a closure per lookup. *)

type 'a t

(** [create ~hash ~equal ()] builds an empty interner.  Defaults:
    [Hashtbl.hash] / structural equality. *)
val create : ?hash:('a -> int) -> ?equal:('a -> 'a -> bool) -> unit -> 'a t

(** The id of [key], allocating a fresh one on first sight.  A hit
    allocates nothing. *)
val intern : 'a t -> 'a -> int

(** The key interned as [id].  Unspecified for ids not allocated by this
    interner. *)
val value : 'a t -> int -> 'a

(** The id of a rooted-path component ("Security", ["@id"], ...) in the
    global label interner. *)
val label : string -> int
val label_value : int -> string

(** Memo table for pure functions.  The function may consult the same
    table; the first result stored for a key wins. *)
module Cache : sig
  type ('k, 'v) t

  val create : ?hash:('k -> int) -> ?equal:('k -> 'k -> bool) -> unit -> ('k, 'v) t

  (** [find_or_compute t key f a b]: the value cached for [key], or [f a b]
      on a miss.  A hit allocates nothing. *)
  val find_or_compute : ('k, 'v) t -> 'k -> ('a -> 'b -> 'v) -> 'a -> 'b -> 'v
end

(** Memo of a pure function of one dense id (as an interner hands out), in
    an array indexed by the id.  A hit allocates nothing. *)
module Dense : sig
  type 'v t

  val create : unit -> 'v t

  (** [find_or_compute t id f a]: the value cached for [id], or [f a id]
      on a miss.  The first result stored for [id] wins. *)
  val find_or_compute : 'v t -> int -> ('a -> int -> 'v) -> 'a -> 'v
end

(** Memo of a pure boolean relation over pairs of dense ids, one byte per
    pair, in rows indexed by the first id.  A hit allocates nothing. *)
module Pairs : sig
  type t

  val create : unit -> t

  (** [find_or_compute t a b f]: the value cached for [(a, b)], or [f a b]
      on a miss.  The first result stored for [(a, b)] wins. *)
  val find_or_compute : t -> int -> int -> (int -> int -> bool) -> bool
end
