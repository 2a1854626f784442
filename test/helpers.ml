(* Shared test fixtures and generators. *)

module T = Xia_xml.Types

let xml s = Xia_xml.Parser.parse_exn s
let xpath s = Xia_xpath.Parser.parse_exn s
let pattern s = Xia_xpath.Pattern.of_string s
let statement s = Xia_query.Parser.parse_statement_exn s

(* The paper's running-example document shape. *)
let security_doc =
  xml
    {|<Security><Symbol>BCIIPRC</Symbol><Name>BCII Preferred C</Name>
       <SecurityType>Bond</SecurityType>
       <SecInfo><BondInformation><Sector>Energy</Sector><Industry>OilGas</Industry></BondInformation></SecInfo>
       <Price><LastTrade>42.17</LastTrade></Price>
       <Yield>4.7</Yield></Security>|}

(* A tiny deterministic TPoX catalog shared by the expensive suites (built
   once, queries must not mutate it). *)
let shared_catalog =
  lazy
    (let catalog = Xia_index.Catalog.create () in
     Xia_workload.Tpox.load ~scale:Xia_workload.Tpox.tiny_scale ~seed:7 catalog;
     catalog)

let fresh_tiny_catalog ?(seed = 7) () =
  let catalog = Xia_index.Catalog.create () in
  Xia_workload.Tpox.load ~scale:Xia_workload.Tpox.tiny_scale ~seed catalog;
  catalog

(* ---------- QCheck generators ---------- *)

let tag_gen = QCheck.Gen.oneofl [ "a"; "b"; "c"; "d"; "item"; "name"; "Price" ]

let text_gen =
  QCheck.Gen.oneofl [ "x"; "Energy"; "4.5"; "hello world"; "42"; "-3.25"; "" ]

let attr_gen =
  QCheck.Gen.(
    map2 (fun k v -> (k, v)) (oneofl [ "id"; "Acct"; "Sym" ]) text_gen)

(* Random XML trees of bounded depth/width. *)
let xml_gen =
  QCheck.Gen.(
    sized_size (int_range 1 30) (fix (fun self n ->
        if n <= 1 then map (fun s -> T.text s) text_gen
        else
          map3
            (fun tag attrs children -> T.element ~attrs tag children)
            tag_gen
            (list_size (int_range 0 2) attr_gen)
            (list_size (int_range 0 3) (self (n / 2))))))

(* Documents must be rooted at an element. *)
let doc_gen =
  QCheck.Gen.(
    map3
      (fun tag attrs children -> T.element ~attrs tag children)
      tag_gen
      (list_size (int_range 0 2) attr_gen)
      (list_size (int_range 0 4) (xml_gen)))

let doc_arbitrary = QCheck.make ~print:Xia_xml.Printer.to_string doc_gen

(* Random linear patterns. *)
let pattern_gen =
  QCheck.Gen.(
    let step_gen =
      map2
        (fun axis test -> { Xia_xpath.Pattern.axis; test })
        (oneofl [ Xia_xpath.Ast.Child; Xia_xpath.Ast.Descendant ])
        (frequency
           [
             (4, map (fun t -> Xia_xpath.Ast.Elem (Xia_xpath.Ast.Name t)) tag_gen);
             (1, return (Xia_xpath.Ast.Elem Xia_xpath.Ast.Wildcard));
             (1, map (fun t -> Xia_xpath.Ast.Attr (Xia_xpath.Ast.Name t)) (oneofl [ "id"; "Sym" ]));
           ])
    in
    list_size (int_range 1 5) step_gen)

let pattern_arbitrary = QCheck.make ~print:Xia_xpath.Pattern.to_string pattern_gen

(* Random rooted label paths. *)
let label_path_gen =
  QCheck.Gen.(
    let* elems = list_size (int_range 1 5) tag_gen in
    let* attr = frequency [ (3, return None); (1, map Option.some (oneofl [ "@id"; "@Sym" ])) ] in
    return (match attr with None -> elems | Some a -> elems @ [ a ]))

let label_path_arbitrary =
  QCheck.make ~print:(String.concat "/") label_path_gen

let qsuite name cells = (name, List.map QCheck_alcotest.to_alcotest cells)

(* Random XPath paths over the tags and attributes [doc_gen] uses: child
   and descendant steps with element, attribute and wildcard tests, and
   nested existence and comparison predicates (an empty relative path is
   the context itself, [.]). *)
let xpath_gen =
  QCheck.Gen.(
    let module A = Xia_xpath.Ast in
    let test_gen =
      frequency
        [
          (4, map (fun t -> A.Elem (A.Name t)) tag_gen);
          (2, return (A.Elem A.Wildcard));
          (1, map (fun t -> A.Attr (A.Name t)) (oneofl [ "id"; "Acct"; "Sym" ]));
          (1, return (A.Attr A.Wildcard));
        ]
    in
    let literal_gen =
      oneof
        [
          map (fun s -> A.String_lit s) text_gen;
          map (fun f -> A.Number_lit f) (oneofl [ 4.5; 42.; -3.25; 0.; 5. ]);
        ]
    in
    let cmp_gen = oneofl [ A.Eq; A.Ne; A.Lt; A.Le; A.Gt; A.Ge ] in
    let rec steps_gen depth lo hi = list_size (int_range lo hi) (step_gen depth)
    and step_gen depth =
      let preds = if depth <= 0 then return [] else list_size (int_range 0 2) (pred_gen (depth - 1)) in
      map3
        (fun axis test predicates -> A.step ~predicates axis test)
        (oneofl [ A.Child; A.Descendant ])
        test_gen preds
    and pred_gen depth =
      frequency
        [
          (2, map (fun rel -> A.Exists rel) (steps_gen depth 1 2));
          ( 3,
            map3
              (fun rel cmp lit -> A.Compare (rel, cmp, lit))
              (steps_gen depth 0 2) cmp_gen literal_gen );
        ]
    in
    steps_gen 2 1 4)

let xpath_arbitrary = QCheck.make ~print:Xia_xpath.Printer.path_to_string xpath_gen
