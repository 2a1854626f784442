(* The what-if pre-passes of Xia_advisor.Benefit written as the
   statement-by-candidate scans they replaced, kept as the differential
   oracle for the access index.

   Plan usage plans each statement alone under its own basics (the basic
   candidates whose affected set holds it) and collects the indexes the
   plans use.  A statement's floor configuration is every candidate that
   affects it or serves one of its accesses ([Optimizer_oracle.serves]),
   and its floor is its cost under that configuration.  Every plan comes
   from [Optimizer_oracle.optimize]. *)

module C = Xia_advisor.Candidate
module B = Xia_advisor.Benefit
module Plan = Xia_optimizer.Plan
module Index_def = Xia_index.Index_def

let defs config = List.map (fun (c : C.t) -> c.C.def) config

let plan catalog config stmt = fst (Optimizer_oracle.optimize ~virtual_config:(defs config) catalog stmt)

(* Logical ids of the indexes some statement's plan uses, ascending. *)
let used_in_plans catalog statements set =
  List.mapi
    (fun i stmt ->
      match List.filter (fun (c : C.t) -> C.Int_set.mem i c.C.affected) (C.basics set) with
      | [] -> []
      | own -> List.map Index_def.logical_id (Plan.indexes_used (plan catalog own stmt)))
    statements
  |> List.concat |> List.sort_uniq compare

(* Each statement's floor configuration, in candidate order. *)
let floor_config i stmt set =
  List.filter
    (fun (c : C.t) -> C.Int_set.mem i c.C.affected || Optimizer_oracle.serves stmt c.C.def)
    (C.to_list set)

let floors catalog statements set =
  Array.of_list
    (List.mapi (fun i stmt -> (plan catalog (floor_config i stmt set) stmt).Plan.total_cost) statements)

(* The distinct non-empty floor configurations, as candidate id lists. *)
let floor_configs statements set =
  List.mapi (fun i stmt -> List.map (fun (c : C.t) -> c.C.id) (floor_config i stmt set)) statements
  |> List.filter (( <> ) []) |> List.sort_uniq compare

(* Candidate ids worth searching over: used in some plan, or a positive
   individual benefit on [fresh], an evaluator no pre-pass has run on. *)
let useful_ids fresh catalog statements set =
  let used = used_in_plans catalog statements set in
  List.filter_map
    (fun (c : C.t) ->
      if List.mem (Index_def.logical_id c.C.def) used || B.individual_benefit fresh c > 0.0 then
        Some c.C.id
      else None)
    (C.to_list set)
