(* XMark-like benchmark: an auction site (Schmidt et al., "The XML Benchmark
   Project").  The original is one large document; like TPoX-era DB2 setups we
   shred it into per-entity documents across three tables, preserving the
   schema shape XMark queries navigate (items with nested descriptions,
   persons with optional profiles, open auctions with bidder histories). *)

module T = Xia_xml.Types

let item_table = "XMITEM"
let person_table = "XMPERSON"
let auction_table = "XMAUCTION"

let regions =
  [ "africa"; "asia"; "australia"; "europe"; "namerica"; "samerica" ]

let categories = List.init 30 (fun i -> Printf.sprintf "category%d" i)

let cities =
  [ "Amsterdam"; "Berlin"; "Paris"; "Tokyo"; "Sydney"; "Lagos"; "Toronto";
     "Lima"; "Mumbai"; "Seoul"; "Madrid"; "Rome" ]

let words =
  [ "vintage"; "rare"; "mint"; "boxed"; "signed"; "antique"; "modern";
     "classic"; "limited"; "original"; "restored"; "handmade" ]

let pick rng l = List.nth l (Random.State.int rng (List.length l))

let item rng i =
  let region = pick rng regions in
  T.element
    ~attrs:[ ("id", Printf.sprintf "item%d" i) ]
    "item"
    [
      T.leaf "location" (pick rng cities);
      T.leaf "region" region;
      T.leaf "name" (Printf.sprintf "%s %s %d" (pick rng words) (pick rng words) i);
      T.leaf "quantity" (string_of_int (1 + Random.State.int rng 10));
      T.element "payment" [ T.leaf "method" (pick rng [ "Cash"; "Creditcard"; "Wire" ]) ];
      T.element "description"
        [
          T.element "parlist"
            [
              T.leaf "listitem" (pick rng words);
              T.leaf "listitem" (pick rng words);
            ];
        ];
      T.leaf "incategory" (pick rng categories);
      T.element "mailbox"
        (List.init (Random.State.int rng 3) (fun _ ->
             T.element "mail"
               [
                 T.leaf "from" (pick rng cities);
                 T.leaf "date" (Printf.sprintf "%02d/%02d/2025"
                                  (1 + Random.State.int rng 12)
                                  (1 + Random.State.int rng 28));
               ]));
    ]

let person rng i =
  let has_profile = Random.State.int rng 100 < 70 in
  T.element
    ~attrs:[ ("id", Printf.sprintf "person%d" i) ]
    "person"
    ([
       T.leaf "name" (Printf.sprintf "Person %d" i);
       T.leaf "emailaddress" (Printf.sprintf "mailto:p%d@example.org" i);
       T.element "address"
         [
           T.leaf "street" (Printf.sprintf "%d Main St" (Random.State.int rng 999));
           T.leaf "city" (pick rng cities);
           T.leaf "country" (pick rng regions);
         ];
     ]
    @
    if has_profile then
      [
        T.element
          ~attrs:[ ("income", Printf.sprintf "%.2f" (20_000.0 +. Random.State.float rng 80_000.0)) ]
          "profile"
          [
            T.leaf "interest" (pick rng categories);
            T.leaf "education" (pick rng [ "HighSchool"; "College"; "Graduate" ]);
          ];
      ]
    else [])

let open_auction rng i ~n_items ~n_persons =
  let n_bids = Random.State.int rng 5 in
  let initial = 1.0 +. Random.State.float rng 200.0 in
  T.element
    ~attrs:[ ("id", Printf.sprintf "open_auction%d" i) ]
    "open_auction"
    ([
       T.leaf "initial" (Printf.sprintf "%.2f" initial);
       T.leaf "current" (Printf.sprintf "%.2f" (initial +. (6.0 *. float_of_int n_bids)));
       T.element ~attrs:[ ("item", Printf.sprintf "item%d" (Random.State.int rng (max 1 n_items))) ] "itemref" [];
       T.element ~attrs:[ ("person", Printf.sprintf "person%d" (Random.State.int rng (max 1 n_persons))) ] "seller" [];
     ]
    @ List.init n_bids (fun b ->
          T.element "bidder"
            [
              T.leaf "date" (Printf.sprintf "%02d/%02d/2025"
                               (1 + Random.State.int rng 12)
                               (1 + Random.State.int rng 28));
              T.leaf "increase" (Printf.sprintf "%.2f" (1.5 +. float_of_int b));
            ]))

type scale = {
  items : int;
  persons : int;
  auctions : int;
}

let default_scale = { items = 2500; persons = 1500; auctions = 2000 }
let tiny_scale = { items = 200; persons = 120; auctions = 150 }

let load ?(scale = default_scale) ?(seed = 1789) catalog =
  let rng = Random.State.make [| seed |] in
  let items = Xia_storage.Doc_store.create item_table in
  let persons = Xia_storage.Doc_store.create person_table in
  let auctions = Xia_storage.Doc_store.create auction_table in
  for i = 0 to scale.items - 1 do
    ignore (Xia_storage.Doc_store.insert items (item rng i))
  done;
  for i = 0 to scale.persons - 1 do
    ignore (Xia_storage.Doc_store.insert persons (person rng i))
  done;
  for i = 0 to scale.auctions - 1 do
    ignore
      (Xia_storage.Doc_store.insert auctions
         (open_auction rng i ~n_items:scale.items ~n_persons:scale.persons))
  done;
  ignore (Xia_index.Catalog.add_table catalog items);
  ignore (Xia_index.Catalog.add_table catalog persons);
  ignore (Xia_index.Catalog.add_table catalog auctions);
  Xia_index.Catalog.runstats_all catalog

(* Queries echoing XMark Q1 (person by id), Q2 (bid increases), Q5 (items
   sold above a price), Q8/Q9-style joins reduced to their index-relevant
   halves, plus attribute and wildcard navigation. *)
let query_strings =
  [
    {|for $p in XMPERSON('XDOC')/person where $p/@id = "person42" return $p/name|};
    {|for $a in XMAUCTION('XDOC')/open_auction[bidder/increase > 6] return $a/current|};
    {|for $i in XMITEM('XDOC')/item where $i/region = "europe" and $i/incategory = "category7" return $i/name|};
    {|for $a in XMAUCTION('XDOC')/open_auction where $a/current > 180 return <High>{$a/itemref/@item}</High>|};
    {|for $p in XMPERSON('XDOC')/person[profile/@income > 85000] return $p/emailaddress|};
    {|for $i in XMITEM('XDOC')/item where $i/description/*/listitem = "vintage" return $i|};
    {|for $p in XMPERSON('XDOC')/person where $p/address/city = "Tokyo" return $p/name|};
    {|for $a in XMAUCTION('XDOC')/open_auction where $a/seller/@person = "person99" return $a|};
  ]

let queries () =
  List.mapi
    (fun i s ->
      Workload.item (Printf.sprintf "X%d" (i + 1)) (Xia_query.Parser.parse_statement_exn s))
    query_strings

let workload () = queries ()
