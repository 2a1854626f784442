(* Logical definition of a partial XML index: an index pattern over one XML
   column plus the SQL data type of the indexed values, mirroring DB2's

     CREATE INDEX ... ON t(xmlcol)
       GENERATE KEY USING XMLPATTERN '/Security/Yield' AS SQL DOUBLE      *)

type data_type =
  | Dstring
  | Ddouble

let data_type_to_string = function
  | Dstring -> "VARCHAR"
  | Ddouble -> "DOUBLE"

let pp_data_type ppf t = Fmt.string ppf (data_type_to_string t)

let equal_data_type a b =
  match a, b with
  | Dstring, Dstring | Ddouble, Ddouble -> true
  | Dstring, Ddouble | Ddouble, Dstring -> false

type t = {
  serial : int;  (* generated-name number; 0 when [given] *)
  given : string option;  (* [?name] of [make] *)
  table : string;
  pattern : Xia_xpath.Pattern.t;
  dtype : data_type;
  pid : int;  (* [Pattern.id pattern] *)
  lid : int;  (* interned logical identity *)
}

(* Interned logical identity: (table id, dtype, pattern id) triples map to
   dense ints without building a key string.  Ids are for identity
   (fingerprints, cache keys) only; user-visible orderings stay on
   [logical_key]. *)
let id_interner : (int * data_type * int) Xia_xpath.Interner.t =
  Xia_xpath.Interner.create ()

(* Serials are unique per process, across catalogs and evaluators, so two
   unnamed definitions never share a generated name. *)
let counter = ref 0 [@@lint.allow "D001"]

(* Both ids are interned here, once per definition, so every later
   matching or memo question about the definition is a field read.  A
   definition without [name] draws a serial; its name is only formatted
   when asked for, by [name]. *)
let make ?name ~table ~pattern ~dtype () =
  let serial =
    match name with
    | Some _ -> 0
    | None ->
        incr counter;
        !counter
  in
  let pid = Xia_xpath.Pattern.id pattern in
  let lid =
    Xia_xpath.Interner.intern id_interner (Xia_xpath.Interner.label table, dtype, pid)
  in
  { serial; given = name; table; pattern; dtype; pid; lid }

let name d =
  match d.given with
  | Some n -> n
  | None ->
      Printf.sprintf "IDX%d_%s_%s_%s" d.serial d.table
        (match d.dtype with Dstring -> "S" | Ddouble -> "D")
        (String.map
           (fun c ->
             match c with
             | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> c
             | _ -> '_')
           (Xia_xpath.Pattern.to_string d.pattern))

(* Logical identity ignores the name: same table, same pattern, same type,
   which is what the interned [lid] stands for. *)
let same a b = a.lid = b.lid

let logical_key d =
  Printf.sprintf "%s|%s|%s" d.table
    (data_type_to_string d.dtype)
    (Xia_xpath.Pattern.key d.pattern)


(* [key_id]'s lookup without the interner's key tuple: per pattern id, the
   (table label, type, logical id) triples already interned with it. *)
type known = { mutable ids : (int * data_type * int) list }

let known : known Xia_xpath.Interner.Dense.t = Xia_xpath.Interner.Dense.create ()
let none_known () _ = { ids = [] }

let rec find_known label dtype = function
  | [] -> -1
  | (l, d, id) :: rest ->
      if l = label && equal_data_type d dtype then id else find_known label dtype rest

let key_id ~table ~dtype ~pid =
  let label = Xia_xpath.Interner.label table in
  let k = Xia_xpath.Interner.Dense.find_or_compute known pid none_known () in
  match find_known label dtype k.ids with
  | -1 ->
      let id = Xia_xpath.Interner.intern id_interner (label, dtype, pid) in
      k.ids <- (label, dtype, id) :: k.ids;
      id
  | id -> id

let compare_logical a b =
  match String.compare a.table b.table with
  | 0 -> ( match compare a.dtype b.dtype with 0 -> compare a.pattern b.pattern | c -> c)
  | c -> c

(* [covers ~general ~specific]: the general index can serve every lookup the
   specific one can — same table and type, containing pattern. *)
let covers ~general ~specific =
  String.equal general.table specific.table
  && equal_data_type general.dtype specific.dtype
  && Xia_xpath.Pattern.covers_id ~general:general.pid ~specific:specific.pid

(* The same test against an interned identity: the table and type compare
   as the ids the interner stored, so no string is compared. *)
let covers_id ~general specific =
  let glabel, gdtype, _ = Xia_xpath.Interner.value id_interner general.lid in
  let label, dtype, pid = Xia_xpath.Interner.value id_interner specific in
  glabel = label
  && equal_data_type gdtype dtype
  && Xia_xpath.Pattern.covers_id ~general:general.pid ~specific:pid

let pp ppf d =
  Fmt.pf ppf "%s ON %s XMLPATTERN '%s' AS %s" (name d) d.table
    (Xia_xpath.Pattern.to_string d.pattern)
    (data_type_to_string d.dtype)
