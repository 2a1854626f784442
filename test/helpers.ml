(* Shared test fixtures and generators. *)

module T = Xia_xml.Types

let xml s = Xia_xml.Parser.parse_exn s
let xpath s = Xia_xpath.Parser.parse_exn s

(* A document packed with a label table of its own, as a store would. *)
let packed doc = Xia_xml.Packed.pack (Xia_xml.Packed.labels ()) doc

(* Evaluation over a tree: its packed form, with the path compiled against
   that form's labels. *)
let eval_tree doc path =
  let p = packed doc in
  Xia_xpath.Eval.eval (Xia_xpath.Eval.path p.labels path) p

let exists_tree doc path =
  let p = packed doc in
  Xia_xpath.Eval.exists (Xia_xpath.Eval.path p.labels path) p
let pattern s = Xia_xpath.Pattern.of_string s
let pattern_id s = Xia_xpath.Pattern.id (pattern s)
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

(* Node values spelled every way [float_of_string_opt (String.trim v)]
   might read or reject: plain decimals around the fast reader's limits
   (15 and 16 digits, 22 and 23 after the point, [1.], [.5]), signs,
   exponents, hexadecimal [0x...p...], [nan], [inf] and [infinity] in
   mixed case, an underscore anywhere, leading and trailing blanks
   including the ['\011'] and ['\012'] that [strtod] skips, lone signs,
   [""], and random ASCII. *)
let number_text_gen =
  QCheck.Gen.(
    let digits lo hi = string_size ~gen:numeral (int_range lo hi) in
    let blank = oneofl [ ' '; '\t'; '\n'; '\r'; '\011'; '\012' ] in
    let blanks = string_size ~gen:blank (int_range 0 2) in
    let plain =
      let fraction = frequency [ (2, return ""); (3, map (( ^ ) ".") (digits 0 24)) ] in
      let long_fraction = oneof [ digits 22 22; digits 23 23 ] in
      let long_mantissa = oneof [ digits 15 15; digits 16 16 ] in
      frequency
        [
          (4, map2 ( ^ ) (digits 0 18) fraction);
          (1, map2 (fun w f -> w ^ "." ^ f) (digits 1 2) long_fraction);
          (1, map2 ( ^ ) long_mantissa (oneofl [ ""; ".5"; "." ]));
        ]
    in
    let exponent =
      let e =
        map3 (fun e s d -> e ^ s ^ d) (oneofl [ "e"; "E" ]) (oneofl [ ""; "-"; "+" ]) (digits 0 3)
      in
      frequency [ (4, return ""); (1, e) ]
    in
    let hex =
      let mantissa = string_size ~gen:(oneofl [ '0'; '7'; 'a'; 'F'; '.' ]) (int_range 0 5) in
      let power = map (( ^ ) "p") (oneof [ digits 1 2; map (( ^ ) "-") (digits 1 2) ]) in
      map3 (fun x m p -> "0" ^ x ^ m ^ p) (oneofl [ "x"; "X" ]) mantissa
        (frequency [ (1, return ""); (2, power) ])
    in
    let mixed_case w =
      map
        (fun ups -> String.mapi (fun i c -> if List.nth ups i then Char.uppercase_ascii c else c) w)
        (list_repeat (String.length w) bool)
    in
    let word = oneofl [ "nan"; "inf"; "infinity" ] >>= mixed_case in
    let number = frequency [ (6, map2 ( ^ ) plain exponent); (1, hex); (1, word) ] in
    let sign = oneofl [ ""; ""; "-"; "+" ] in
    let spelled =
      map3 (fun lead (s, n) trail -> lead ^ s ^ n ^ trail) blanks (pair sign number) blanks
    in
    let underscore s =
      let n = String.length s in
      map (fun k -> k mod (n + 1)) nat
      |> map (fun k -> String.sub s 0 k ^ "_" ^ String.sub s k (n - k))
    in
    let ascii = string_size ~gen:(map Char.chr (int_range 0 127)) (int_range 0 8) in
    let near_char = oneofl [ '0'; '1'; '9'; '.'; '-'; 'e'; ' '; '_'; 'x'; 'n' ] in
    let near = string_size ~gen:near_char (int_range 0 8) in
    frequency
      [
        (8, spelled);
        (1, spelled >>= underscore);
        (1, oneofl [ "1."; ".5"; "-"; "+"; ""; "-.5"; "+.5"; "1e"; "0x"; "_1"; "1_" ]);
        (1, ascii);
        (1, near);
        (1, text_gen);
      ])

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
