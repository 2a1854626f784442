(* The generalization fixpoint that Xia_advisor.Generalize.close replaced,
   kept as the differential oracle.  It runs a queue of candidates; every
   dequeue rescans the whole set for the candidates processed before it;
   every lookup goes through a printed logical key; and every definition
   gets its name formatted when it is made, as [Index_def.make] used to.
   Pairs come from the library's [Generalize.pair], deduplicated again by
   printed pattern key. *)

module C = Xia_advisor.Candidate
module G = Xia_advisor.Generalize
module D = Xia_index.Index_def
module Pattern = Xia_xpath.Pattern

(* The name [Index_def.make] gave a definition: the given one, or
   [IDX<serial>_<table>_<S|D>_<pattern>] with every non-alphanumeric
   character of the printed pattern written as [_]. *)
let eager_name (d : D.t) =
  match d.given with
  | Some n -> n
  | None ->
      Printf.sprintf "IDX%d_%s_%s_%s" d.serial d.table
        (match d.dtype with D.Dstring -> "S" | D.Ddouble -> "D")
        (String.map
           (fun c ->
             match c with
             | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> c
             | _ -> '_')
           (Pattern.to_string d.pattern))

(* [name] with its serial moved by [by]: two runs of the same generation
   draw the same serials up to the counter's value when each started. *)
let renumber ~by name =
  let cut = String.index name '_' in
  Printf.sprintf "IDX%d%s"
    (int_of_string (String.sub name 3 (cut - 3)) + by)
    (String.sub name cut (String.length name - cut))

let pair p q =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun pat ->
      let k = Pattern.key pat in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    (G.pair p q)

(* Close [set] as the library's [Generalize.close] must, and return each
   candidate's name, by id, as formatted when its definition was made. *)
let close set =
  let names = Hashtbl.create 64 in
  let by_key = Hashtbl.create 64 in
  List.iter
    (fun (c : C.t) ->
      Hashtbl.replace names c.id (eager_name c.def);
      Hashtbl.replace by_key (D.logical_key c.def) c)
    (C.to_list set);
  let queue = Queue.create () in
  List.iter (fun c -> Queue.add c queue) (C.to_list set);
  let processed = Hashtbl.create 64 in
  let consider (a : C.t) (b : C.t) =
    if a.id <> b.id && G.compatible a b then
      List.iter
        (fun pat ->
          let same_as_input =
            Pattern.equal pat a.def.D.pattern || Pattern.equal pat b.def.D.pattern
          in
          let def = D.make ~table:a.def.D.table ~pattern:pat ~dtype:a.def.D.dtype () in
          let name = eager_name def in
          if same_as_input then begin
            match Hashtbl.find_opt by_key (D.logical_key def) with
            | Some parent ->
                if parent.C.id <> a.id then C.add_edge ~parent ~child:a;
                if parent.C.id <> b.id then C.add_edge ~parent ~child:b
            | None -> ()
          end
          else if C.cardinality set < G.max_candidates then begin
            let parent =
              match Hashtbl.find_opt by_key (D.logical_key def) with
              | Some c -> c
              | None ->
                  let c = C.add set ~origin:C.General def in
                  Hashtbl.replace names c.id name;
                  Hashtbl.replace by_key (D.logical_key def) c;
                  Queue.add c queue;
                  c
            in
            C.add_edge ~parent ~child:a;
            C.add_edge ~parent ~child:b
          end)
        (pair a.def.D.pattern b.def.D.pattern)
  in
  let rec drain () =
    match Queue.take_opt queue with
    | None -> ()
    | Some (c : C.t) ->
        let others =
          List.filter (fun (o : C.t) -> Hashtbl.mem processed o.id) (C.to_list set)
        in
        Hashtbl.replace processed c.id ();
        List.iter (fun o -> consider c o) others;
        drain ()
  in
  drain ();
  C.compute_affected set;
  Array.init (C.cardinality set) (Hashtbl.find names)
