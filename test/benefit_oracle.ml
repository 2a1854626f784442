(* The one-shot partition Xia_advisor.Benefit.extend replaced, kept as the
   differential oracle.

   Union-find over every pair of candidates in the list, testing affected
   sets with [Int_set.disjoint]; groups come out in first-member order, each
   listing its members in reverse list order.  Quadratic and allocating,
   but each rule is one line. *)

module C = Xia_advisor.Candidate

let sub_configurations (config : C.t list) =
  let arr = Array.of_list config in
  let n = Array.length arr in
  let parent = Array.init n (fun i -> i) in
  let rec find i = if parent.(i) = i then i else (parent.(i) <- find parent.(i); parent.(i)) in
  let union i j =
    let ri = find i and rj = find j in
    if ri <> rj then parent.(ri) <- rj
  in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if not (C.Int_set.disjoint arr.(i).C.affected arr.(j).C.affected) then union i j
    done
  done;
  let groups = Hashtbl.create 8 in
  let order = ref [] in
  Array.iteri
    (fun i c ->
      let r = find i in
      (match Hashtbl.find_opt groups r with
      | None -> order := r :: !order
      | Some _ -> ());
      Hashtbl.replace groups r (c :: Option.value ~default:[] (Hashtbl.find_opt groups r)))
    arr;
  List.rev_map (fun r -> Hashtbl.find groups r) !order
