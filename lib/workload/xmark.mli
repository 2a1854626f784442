(** XMark-like auction benchmark, shredded into per-entity documents. *)

val item_table : string
val person_table : string
val auction_table : string

val item : Random.State.t -> int -> Xia_xml.Types.t
val person : Random.State.t -> int -> Xia_xml.Types.t

type scale = {
  items : int;
  persons : int;
  auctions : int;
}

val default_scale : scale
val tiny_scale : scale

val load : ?scale:scale -> ?seed:int -> Xia_index.Catalog.t -> unit

val query_strings : string list
val queries : unit -> Workload.t
val workload : unit -> Workload.t
