(* Stored documents packed into preorder arrays.

   A document is packed once, on its way into a store, and read many times:
   by the XPath evaluator, RUNSTATS and index builds.  Packing replaces a
   tree of records and lists by a handful of flat arrays, so a reader walks
   consecutive memory, a rank is an array index, and a label is an integer
   interned in the store's table instead of a string compared byte by
   byte. *)

module Names = Hashtbl.Make (String)

type labels = {
  ids : int Names.t;
  mutable names : string array;
}

let labels () = { ids = Names.create 64; names = [||] }

let intern t name =
  match Names.find t.ids name with
  | id -> id
  | exception Not_found ->
      let id = Names.length t.ids in
      if id = Array.length t.names then begin
        let names = Array.make (max 16 (2 * id)) "" in
        Array.blit t.names 0 names 0 id;
        t.names <- names
      end;
      t.names.(id) <- name;
      Names.add t.ids name id;
      id

let find_label t name = match Names.find t.ids name with id -> id | exception Not_found -> -1

let label t id = t.names.(id)

type t = {
  labels : labels;
  tags : int array;
  last : int array;
  values : string array;
  attr_first : int array;
  attr_names : int array;
  attr_values : string array;
  mixed : (int * (int * string) list) array;
  bytes : int;
}

let elements doc = Array.length doc.tags

(* ---------- packing ---------- *)

let rec has_text = function
  | [] -> false
  | Types.Text _ :: _ -> true
  | Types.Element _ :: cs -> has_text cs

let rec text_positions pos = function
  | [] -> []
  | Types.Text s :: cs -> (pos, s) :: text_positions (pos + 1) cs
  | Types.Element _ :: cs -> text_positions (pos + 1) cs

(* One pass sizes the arrays, a second fills them in preorder.  The byte
   size is summed on the way, with the terms of [Types.byte_size]. *)
let pack labels doc =
  let root =
    match doc with
    | Types.Element e -> e
    | Types.Text _ -> invalid_arg "Packed.pack: document root is a text node"
  in
  let n = ref 0 and slots = ref 0 in
  let rec count (e : Types.element) =
    incr n;
    slots := !slots + List.length e.attrs;
    count_children e.children
  and count_children = function
    | [] -> ()
    | Types.Element c :: cs ->
        count c;
        count_children cs
    | Types.Text _ :: cs -> count_children cs
  in
  count root;
  let n = !n and slots = !slots in
  let tags = Array.make n 0 and last = Array.make n 0 and values = Array.make n "" in
  let attr_first = Array.make (n + 1) slots in
  let attr_names = Array.make slots 0 and attr_values = Array.make slots "" in
  let next = ref 0 and slot = ref 0 and bytes = ref 0 and mixed = ref [] in
  let value_of i (e : Types.element) =
    match e.children with
    | Types.Text s :: cs when s <> "" && not (has_text cs) -> s
    | cs when not (has_text cs) -> ""
    | cs ->
        mixed := (i, text_positions 0 cs) :: !mixed;
        Types.direct_text e
  in
  let rec fill (e : Types.element) =
    let i = !next in
    incr next;
    tags.(i) <- intern labels e.tag;
    attr_first.(i) <- !slot;
    fill_attrs e.attrs;
    let v = value_of i e in
    values.(i) <- v;
    bytes := !bytes + (2 * String.length e.tag) + 5 + String.length v;
    fill_children e.children;
    last.(i) <- !next - 1
  and fill_attrs = function
    | [] -> ()
    | (k, v) :: rest ->
        attr_names.(!slot) <- intern labels k;
        attr_values.(!slot) <- v;
        bytes := !bytes + String.length k + String.length v + 4;
        incr slot;
        fill_attrs rest
  and fill_children = function
    | [] -> ()
    | Types.Element c :: cs ->
        fill c;
        fill_children cs
    | Types.Text _ :: cs -> fill_children cs
  in
  fill root;
  {
    labels;
    tags;
    last;
    values;
    attr_first;
    attr_names;
    attr_values;
    mixed = Array.of_list (List.rev !mixed);
    bytes = !bytes;
  }

(* ---------- unpacking ---------- *)

(* Element children [elems] with the texts put back at their positions. *)
let rec interleave pos texts elems =
  match texts, elems with
  | (p, s) :: texts, _ when p = pos -> Types.Text s :: interleave (pos + 1) texts elems
  | _, e :: elems -> e :: interleave (pos + 1) texts elems
  | _, [] -> List.map (fun (_, s) -> Types.Text s) texts

let unpack doc =
  let name = label doc.labels in
  (* [mixed] is by rank, and elements are rebuilt in rank order. *)
  let cursor = ref 0 in
  let rec build i =
    let texts =
      if !cursor < Array.length doc.mixed && fst doc.mixed.(!cursor) = i then begin
        let _, texts = doc.mixed.(!cursor) in
        incr cursor;
        Some texts
      end
      else None
    in
    let attrs =
      List.init
        (doc.attr_first.(i + 1) - doc.attr_first.(i))
        (fun k ->
          let s = doc.attr_first.(i) + k in
          (name doc.attr_names.(s), doc.attr_values.(s)))
    in
    let rec children j =
      if j > doc.last.(i) then []
      else
        let c = build j in
        c :: children (doc.last.(j) + 1)
    in
    let elems = children (i + 1) in
    let children =
      match texts with
      | Some texts -> interleave 0 texts elems
      | None -> if doc.values.(i) = "" then elems else Types.Text doc.values.(i) :: elems
    in
    Types.Element { tag = name doc.tags.(i); attrs; children }
  in
  build 0

(* ---------- updates ---------- *)

let set_text doc ranks v =
  match List.sort_uniq Int.compare ranks with
  | [] -> doc
  | ranks ->
      let values = Array.copy doc.values in
      let bytes =
        List.fold_left
          (fun b r ->
            let b = b - String.length values.(r) + String.length v in
            values.(r) <- v;
            b)
          doc.bytes ranks
      in
      (* A new empty text is a [Text ""] child, which only [mixed] records. *)
      let kept = List.filter (fun (r, _) -> not (List.mem r ranks)) (Array.to_list doc.mixed) in
      let added = if v = "" then List.map (fun r -> (r, [ (0, "") ])) ranks else [] in
      let mixed =
        Array.of_list (List.merge (fun (a, _) (b, _) -> Int.compare a b) kept added)
      in
      { doc with values; mixed; bytes }

(* ---------- guided walk ---------- *)

(* A per-walk dataguide: one node per distinct rooted label path met so
   far.  A node's children are kept sorted by key, twice the label id for
   an element and that plus one for an attribute, so finding a child is a
   binary search that compares integers and allocates nothing, whatever
   the node's width.  Each node holds the consumer's value for its path,
   computed once from the parent's value and the label, and whether that
   value is live. *)
type 'a guide_node = {
  key : int;
  value : 'a;
  live : bool;
  mutable count : int;
  mutable children : 'a guide_node array;  (* the first [count] are used *)
}

type 'a guide = {
  table : labels;
  root : 'a guide_node;
  label : 'a -> string -> 'a;
  dead : 'a -> bool;
}

let guide_node key value live = { key; value; live; count = 0; children = [||] }

let guide table ~root ~label ~dead =
  { table; root = guide_node (-1) root (not (dead root)); label; dead }

(* A new child at position [at], the array doubling when full.  Labels are
   interned in document order, so a new child usually goes last. *)
let add_child g parent key at =
  let name = label g.table (key lsr 1) in
  let value = g.label parent.value (if key land 1 = 1 then "@" ^ name else name) in
  let node = guide_node key value (not (g.dead value)) in
  let n = parent.count in
  if n = Array.length parent.children then begin
    let children = Array.make (max 1 (2 * n)) node in
    Array.blit parent.children 0 children 0 n;
    parent.children <- children
  end;
  Array.blit parent.children at parent.children (at + 1) (n - at);
  parent.children.(at) <- node;
  parent.count <- n + 1;
  node

let find_child g parent key =
  let children = parent.children in
  let lo = ref 0 and hi = ref parent.count in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if children.(mid).key < key then lo := mid + 1 else hi := mid
  done;
  if !lo < parent.count && children.(!lo).key = key then children.(!lo)
  else add_child g parent key !lo

(* Preorder over elements, each followed by its attributes.  A dead
   element's subtree is skipped; ranks are array indexes, so nothing after
   it needs to know how large the skipped part was. *)
let walk g f doc =
  if doc.labels != g.table then invalid_arg "Packed.walk: the guide serves another label table";
  let rec visit parent i =
    let here = find_child g parent (2 * doc.tags.(i)) in
    if here.live then begin
      f i (-1) here.value doc.values.(i);
      let first = doc.attr_first.(i) in
      for s = first to doc.attr_first.(i + 1) - 1 do
        let a = find_child g here ((2 * doc.attr_names.(s)) + 1) in
        if a.live then f i (s - first) a.value doc.attr_values.(s)
      done;
      visit_children here (i + 1) doc.last.(i)
    end
  and visit_children parent j stop =
    if j <= stop then begin
      visit parent j;
      visit_children parent (doc.last.(j) + 1) stop
    end
  in
  visit g.root 0
