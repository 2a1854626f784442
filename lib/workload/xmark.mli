(** XMark-like auction benchmark, shredded into per-entity documents. *)

val item_table : string
val person_table : string
val auction_table : string

val person : Random.State.t -> int -> Xia_xml.Types.t

type scale = {
  items : int;
  persons : int;
  auctions : int;
}

val tiny_scale : scale

val load : ?scale:scale -> ?seed:int -> [> `Write ] Xia_index.Catalog.t -> unit

val workload : unit -> Workload.t
