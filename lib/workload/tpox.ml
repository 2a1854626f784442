(* TPoX-like benchmark: data generator and query workload.

   TPoX (Transaction Processing over XML, Nicola et al., SIGMOD 2007) models
   a financial brokerage: security master data, customers with accounts, and
   FIXML orders.  The real benchmark's 1 GB scale is far beyond what a unit
   bench needs; this generator reproduces the schema shape the paper's
   examples rely on (Symbol, Yield, SecInfo/*/Sector, account balances, FIXML
   attributes) at a configurable document count, with deterministic
   pseudo-random content. *)

module T = Xia_xml.Types

let security_table = "SECURITY"
let custacc_table = "CUSTACC"
let order_table = "XORDER"

let sectors =
  [ "Energy"; "Technology"; "Finance"; "Healthcare"; "Utilities"; "Materials";
     "Industrials"; "ConsumerStaples"; "ConsumerDiscretionary"; "Telecom";
     "RealEstate"; "Transport" ]

let industries =
  [ "OilGas"; "Semiconductors"; "Software"; "Banks"; "Insurance"; "Biotech";
     "Pharma"; "ElectricUtilities"; "Chemicals"; "Aerospace"; "Defense";
     "FoodProducts"; "Beverages"; "Retail"; "Automobiles"; "Media"; "Wireless";
     "REITs"; "Railroads"; "Airlines"; "Mining"; "Steel"; "Paper"; "Machinery";
     "Construction"; "Textiles"; "Tobacco"; "Gaming"; "Lodging"; "Restaurants";
     "ITServices"; "Hardware"; "Internet"; "AssetManagement"; "Brokerage";
     "Reinsurance"; "WaterUtilities"; "GasUtilities"; "Shipping"; "Logistics" ]

let countries =
  [ "USA"; "Canada"; "Germany"; "France"; "UK"; "Japan"; "Australia"; "Brazil";
     "India"; "China"; "Mexico"; "Spain"; "Italy"; "Netherlands"; "Sweden";
     "Norway"; "Switzerland"; "Austria"; "Belgium"; "Denmark"; "Finland";
     "Ireland"; "Portugal"; "Greece"; "Poland"; "Korea"; "Singapore";
     "SouthAfrica"; "Argentina"; "Chile" ]

let first_names =
  [ "James"; "Mary"; "Robert"; "Patricia"; "John"; "Jennifer"; "Michael";
     "Linda"; "David"; "Elizabeth"; "William"; "Barbara"; "Richard"; "Susan";
     "Joseph"; "Jessica"; "Thomas"; "Sarah"; "Charles"; "Karen" ]

let last_names =
  [ "Smith"; "Johnson"; "Williams"; "Brown"; "Jones"; "Garcia"; "Miller";
     "Davis"; "Rodriguez"; "Martinez"; "Hernandez"; "Lopez"; "Gonzalez";
     "Wilson"; "Anderson"; "Taylor"; "Moore"; "Jackson"; "Martin"; "Lee" ]

let tiers = [ "Platinum"; "Gold"; "Silver"; "Standard" ]
let currencies = [ "USD"; "EUR"; "GBP"; "JPY"; "CAD"; "CHF" ]

let pick rng l = List.nth l (Random.State.int rng (List.length l))

let money rng lo hi =
  Printf.sprintf "%.2f" (lo +. Random.State.float rng (hi -. lo))

let date rng =
  Printf.sprintf "20%02d-%02d-%02d"
    (20 + Random.State.int rng 7)
    (1 + Random.State.int rng 12)
    (1 + Random.State.int rng 28)

let symbol_of i = Printf.sprintf "SYM%05d" i

(* One Security document.  The child of SecInfo depends on the security type,
   which is what makes the paper's /Security/SecInfo/*/Sector wildcard (and
   its /Security//* generalization) meaningful. *)
let security rng i =
  let sec_type = pick rng [ "Stock"; "Bond"; "Fund" ] in
  let sector = pick rng sectors in
  let industry = pick rng industries in
  let info_children =
    [ T.leaf "Sector" sector; T.leaf "Industry" industry ]
    @
    match sec_type with
    | "Stock" ->
        [
          T.leaf "PE" (Printf.sprintf "%.1f" (5.0 +. Random.State.float rng 45.0));
          T.leaf "SharesOutstanding" (string_of_int (Random.State.int rng 10_000_000));
          T.leaf "MarketCap" (money rng 1e6 1e9);
        ]
    | "Bond" ->
        [
          T.leaf "CouponRate" (Printf.sprintf "%.2f" (Random.State.float rng 9.0));
          T.leaf "MaturityDate" (date rng);
          T.leaf "Rating" (pick rng [ "AAA"; "AA"; "A"; "BBB"; "BB"; "B" ]);
        ]
    | _ ->
        [
          T.leaf "ManagementFee" (Printf.sprintf "%.2f" (Random.State.float rng 2.5));
          T.leaf "FundFamily" (Printf.sprintf "Family%02d" (Random.State.int rng 25));
        ]
  in
  let info_tag = sec_type ^ "Information" in
  let yield_opt =
    (* Stocks pay a dividend yield only sometimes; bonds and funds always
       carry a Yield element. *)
    if String.equal sec_type "Stock" && Random.State.int rng 100 < 60 then []
    else [ T.leaf "Yield" (Printf.sprintf "%.1f" (Random.State.float rng 10.0)) ]
  in
  let price = 1.0 +. Random.State.float rng 999.0 in
  T.element "Security"
    ([
       T.leaf "Symbol" (symbol_of i);
       T.leaf "Name" (Printf.sprintf "%s %s Corp %d" (pick rng industries) sec_type i);
       T.leaf "SecurityType" sec_type;
       T.element "SecInfo" [ T.element info_tag info_children ];
       T.element "Price"
         [
           T.leaf "LastTrade" (Printf.sprintf "%.2f" price);
           T.leaf "Ask" (Printf.sprintf "%.2f" (price *. 1.01));
           T.leaf "Bid" (Printf.sprintf "%.2f" (price *. 0.99));
         ];
     ]
    @ yield_opt)

let account_id_of customer_index k = Printf.sprintf "ACCT%05d%d" customer_index k

let customer rng i =
  let id = 1000 + i in
  let n_accounts = 1 + Random.State.int rng 3 in
  let accounts =
    List.init n_accounts (fun k ->
        T.element
          ~attrs:[ ("id", account_id_of i k) ]
          "Account"
          [
            T.leaf "Category" (pick rng [ "Checking"; "Savings"; "Brokerage"; "Retirement" ]);
            T.leaf "Currency" (pick rng currencies);
            T.element "Balance"
              [
                T.leaf "OnlineActualBal" (money rng 0.0 100_000.0);
                T.leaf "AvailableBal" (money rng 0.0 100_000.0);
              ];
            T.leaf "LastUpdate" (date rng);
          ])
  in
  T.element
    ~attrs:[ ("id", string_of_int id) ]
    "Customer"
    [
      T.element "Name"
        [ T.leaf "FirstName" (pick rng first_names); T.leaf "LastName" (pick rng last_names) ];
      T.leaf "Nationality" (pick rng countries);
      T.leaf "CountryOfResidence" (pick rng countries);
      T.leaf "Tier" (pick rng tiers);
      T.element "Accounts" accounts;
    ]

let order rng i ~n_securities ~n_customers =
  let sym = symbol_of (Random.State.int rng (max 1 n_securities)) in
  let cust = Random.State.int rng (max 1 n_customers) in
  let acct = account_id_of cust 0 in
  T.element "FIXML"
    [
      T.element
        ~attrs:
          [
            ("ID", Printf.sprintf "ORD%06d" i);
            ("Acct", acct);
            ("Side", if Random.State.bool rng then "1" else "2");
            ("TrdDt", date rng);
            ("Typ", string_of_int (1 + Random.State.int rng 2));
          ]
        "Order"
        [
          T.element ~attrs:[ ("Sym", sym); ("SecTyp", "CS") ] "Instrmt" [];
          T.element ~attrs:[ ("Qty", string_of_int (100 * (1 + Random.State.int rng 50))) ] "OrdQty" [];
        ];
    ]

type scale = {
  securities : int;
  customers : int;
  orders : int;
}

let default_scale = { securities = 4000; customers = 2000; orders = 3000 }

let tiny_scale = { securities = 300; customers = 150; orders = 200 }

(* Populate a catalog with the three TPoX tables and collect statistics. *)
let load ?(scale = default_scale) ?(seed = 42) catalog =
  let rng = Random.State.make [| seed |] in
  let sec = Xia_storage.Doc_store.create security_table in
  let cust = Xia_storage.Doc_store.create custacc_table in
  let ord = Xia_storage.Doc_store.create order_table in
  for i = 0 to scale.securities - 1 do
    ignore (Xia_storage.Doc_store.insert sec (security rng i))
  done;
  for i = 0 to scale.customers - 1 do
    ignore (Xia_storage.Doc_store.insert cust (customer rng i))
  done;
  for i = 0 to scale.orders - 1 do
    ignore
      (Xia_storage.Doc_store.insert ord
         (order rng i ~n_securities:scale.securities ~n_customers:scale.customers))
  done;
  Xia_index.Catalog.add_table catalog sec;
  Xia_index.Catalog.add_table catalog cust;
  Xia_index.Catalog.add_table catalog ord;
  Xia_index.Catalog.runstats_all catalog

(* The 11-query TPoX-flavoured workload (mirroring the benchmark's query set;
   Q1 and Q2 are verbatim the paper's running examples). *)
let query_strings =
  [
    (* Q1: return a security having the specified symbol (paper Q1) *)
    {|for $sec in SECURITY('SDOC')/Security where $sec/Symbol = "SYM00042" return $sec|};
    (* Q2: securities in a sector with a yield range (paper Q2) *)
    {|for $sec in SECURITY('SDOC')/Security[Yield>4.5] where $sec/SecInfo/*/Sector = "Energy" return <Security>{$sec/Name}</Security>|};
    (* Q3: price of a security by symbol *)
    {|for $sec in SECURITY('SDOC')/Security where $sec/Symbol = "SYM01007" return $sec/Price/LastTrade|};
    (* Q4: securities of an industry *)
    {|for $sec in SECURITY('SDOC')/Security where $sec/SecInfo/*/Industry = "Semiconductors" return <Result>{$sec/Symbol, $sec/Name}</Result>|};
    (* Q5: cheap stocks with a low PE *)
    {|for $sec in SECURITY('SDOC')/Security[SecInfo/StockInformation/PE < 12] where $sec/Price/LastTrade < 40 return <Stock>{$sec/Symbol}</Stock>|};
    (* Q6: customer profile by id *)
    {|for $cust in CUSTACC('CADOC')/Customer where $cust/@id = 1042 return $cust/Name|};
    (* Q7: accounts of wealthy customers *)
    {|for $cust in CUSTACC('CADOC')/Customer[Accounts/Account/Balance/OnlineActualBal > 95000] return <Rich>{$cust/Name/LastName}</Rich>|};
    (* Q8: premium customers of a nationality *)
    {|for $cust in CUSTACC('CADOC')/Customer where $cust/Nationality = "Norway" and $cust/Tier = "Platinum" return $cust|};
    (* Q9: account lookup by account id *)
    {|for $cust in CUSTACC('CADOC')/Customer where $cust/Accounts/Account/@id = "ACCT001230" return <Owner>{$cust/Name}</Owner>|};
    (* Q10: order by order id *)
    {|for $ord in XORDER('ODOC')/FIXML/Order where $ord/@ID = "ORD000123" return $ord|};
    (* Q11: orders booked against an account *)
    {|for $ord in XORDER('ODOC')/FIXML/Order where $ord/@Acct = "ACCT000770" return <Ord>{$ord/@ID}</Ord>|};
  ]

let workload () =
  List.mapi
    (fun i s ->
      Workload.item (Printf.sprintf "Q%d" (i + 1)) (Xia_query.Parser.parse_statement_exn s))
    query_strings

(* DML statements for maintenance-cost experiments (TPoX's transaction side:
   order entry, price update, order deletion, customer address change). *)
let dml_strings =
  [
    {|insert into XORDER <FIXML><Order ID="ORDNEW001" Acct="ACCT000420" Side="1" TrdDt="2026-07-01" Typ="1"><Instrmt Sym="SYM00042" SecTyp="CS"/><OrdQty Qty="500"/></Order></FIXML>|};
    {|update SECURITY set /Security/Price/LastTrade = "99.50" where /Security[Symbol="SYM00042"]|};
    {|delete from XORDER where /FIXML/Order[@ID="ORD000099"]|};
    {|update CUSTACC set /Customer/Tier = "Gold" where /Customer[@id=1042]|};
  ]

let dml () =
  List.mapi
    (fun i s ->
      Workload.item (Printf.sprintf "U%d" (i + 1)) (Xia_query.Parser.parse_statement_exn s))
    dml_strings

(* Nine "variation" queries: unseen leaves under the subtrees the main
   queries touch (the paper's scenario where "the rich structure of XML
   allows users to pose queries that retrieve elements ... reachable by
   different paths with slight variations").  A general index such as
   /Security/SecInfo//* learned from Q2/Q4 keeps serving most of these. *)
let variation_query_strings =
  [
    {|for $sec in SECURITY('SDOC')/Security where $sec/SecInfo/*/Rating = "AAA" return $sec|};
    {|for $sec in SECURITY('SDOC')/Security[SecInfo/*/CouponRate > 7] return $sec/Name|};
    {|for $sec in SECURITY('SDOC')/Security where $sec/SecInfo/*/FundFamily = "Family07" return $sec|};
    {|for $sec in SECURITY('SDOC')/Security where $sec/SecInfo/*/MarketCap > 900000000 return $sec/Symbol|};
    {|for $sec in SECURITY('SDOC')/Security where $sec/Price/Ask < 5 return $sec|};
    {|for $cust in CUSTACC('CADOC')/Customer where $cust/Accounts/Account/Currency = "CHF" return $cust/Name|};
    {|for $cust in CUSTACC('CADOC')/Customer where $cust/Accounts/Account/Category = "Retirement" return $cust|};
    {|for $cust in CUSTACC('CADOC')/Customer where $cust/CountryOfResidence = "Japan" return $cust/Name|};
    {|for $ord in XORDER('ODOC')/FIXML/Order where $ord/Instrmt/@Sym = "SYM00042" return $ord|};
  ]

let variation_queries () =
  List.mapi
    (fun i s ->
      Workload.item (Printf.sprintf "V%d" (i + 1)) (Xia_query.Parser.parse_statement_exn s))
    variation_query_strings


let workload_with_updates ?(update_freq = 1.0) () =
  workload () @ List.map (fun i -> { i with Workload.freq = update_freq }) (dml ())
