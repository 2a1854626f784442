(** The shape of a what-if binding: it takes a catalog of any capability. *)

val evaluate : _ Xia_index.Catalog.t -> unit
