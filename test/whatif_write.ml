(* Never linked: the capability lock in test/dune type-checks this file
   and expects the compiler to reject it.  A what-if path holds a catalog
   without its write capability, so calling a mutator on it is a type
   error. *)

let evaluate catalog =
  Xia_index.Catalog.runstats_all (Xia_index.Catalog.read_only catalog)
