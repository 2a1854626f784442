(* Candidate generalization (Section V of the paper).

   Pairs of index patterns are generalized with generalizeStep (Algorithm 1)
   and advanceStep (Table II), then rewritten with rule 0 (middle wildcard
   steps fold into a descendant axis).  The paper's worked examples pin down
   the exact semantics:

   - /Security/Symbol ⊕ /Security/SecInfo/*/Sector → /Security//*
   - /a/b/d ⊕ /a/d/b/d → { /a//d, /a//b/d }

   In particular, advanceStep rule 4's first alternative advances both
   pointers WITHOUT appending a filler step: the worked example issues
   generalizeStep(/Security, /Symbol, /SecInfo/x/Sector) with genXPath equal
   to /Security, not /Security/x (writing x for the star).  The two
   re-occurrence alternatives and rules 2-3 do append a wildcard filler for
   the steps they skip. *)

module Pattern = Xia_xpath.Pattern
module Xp = Xia_xpath.Ast
module Index_def = Xia_index.Index_def

let wildcard_step = { Pattern.axis = Xp.Child; test = Xp.Elem Xp.Wildcard }

let gen_axis a b =
  match a, b with
  | Xp.Descendant, _ | _, Xp.Descendant -> Xp.Descendant
  | Xp.Child, Xp.Child -> Xp.Child

(* Generalize two name tests of the same node kind. *)
let gen_test a b =
  match a, b with
  | Xp.Elem ta, Xp.Elem tb ->
      Some (Xp.Elem (if Xp.equal_name_test ta tb then ta else Xp.Wildcard))
  | Xp.Attr ta, Xp.Attr tb ->
      Some (Xp.Attr (if Xp.equal_name_test ta tb then ta else Xp.Wildcard))
  | Xp.Elem _, Xp.Attr _ | Xp.Attr _, Xp.Elem _ -> None

(* [pi] and [pj] are the remaining steps of each expression, with the head as
   the "current node"; [gen] is the reversed generalized path built so far. *)
let rec generalize_step gen pi pj acc =
  match pi, pj with
  | [], _ | _, [] -> acc (* exhausted expressions cannot be generalized *)
  | [ _ ], _ :: _ :: _ | _ :: _ :: _, [ _ ] ->
      (* Exactly one expression is at its last step: only advance. *)
      advance_step gen pi pj acc
  | si :: _, sj :: _ -> (
      match gen_test si.Pattern.test sj.Pattern.test with
      | None -> acc (* element/attribute kind mismatch: no generalization *)
      | Some test ->
          let node = { Pattern.axis = gen_axis si.Pattern.axis sj.Pattern.axis; test } in
          advance_step (node :: gen) pi pj acc)

and advance_step gen pi pj acc =
  match pi, pj with
  | [], _ | _, [] -> acc
  | [ _ ], [ _ ] -> gen :: acc (* rule 1: both at their last step *)
  | [ _ ], _ :: ((_ :: _) as rest_j) ->
      (* rule 2: fast-forward pj to its last step, filler for skipped steps *)
      let last_j = [ List.nth rest_j (List.length rest_j - 1) ] in
      generalize_step (wildcard_step :: gen) pi last_j acc
  | _ :: ((_ :: _) as rest_i), [ _ ] ->
      (* rule 3: symmetric *)
      let last_i = [ List.nth rest_i (List.length rest_i - 1) ] in
      generalize_step (wildcard_step :: gen) last_i pj acc
  | _ :: ((si' :: _) as rest_i), _ :: ((sj' :: _) as rest_j) ->
      (* rule 4: advance both; also try re-occurrence alignments *)
      let acc = generalize_step gen rest_i rest_j acc in
      let occurrence_of step steps =
        let rec drop = function
          | [] -> None
          | s :: _ as l when Xp.equal_node_test s.Pattern.test step.Pattern.test -> Some l
          | _ :: rest -> drop rest
        in
        drop steps
      in
      let acc =
        match occurrence_of si' rest_j with
        | Some pj_aligned when pj_aligned != rest_j ->
            generalize_step (wildcard_step :: gen) rest_i pj_aligned acc
        | Some _ | None -> acc
      in
      let acc =
        match occurrence_of sj' rest_i with
        | Some pi_aligned when pi_aligned != rest_i ->
            generalize_step (wildcard_step :: gen) pi_aligned rest_j acc
        | Some _ | None -> acc
      in
      acc

(* Keep the first of each pattern, by interned id. *)
let rec dedup seen = function
  | [] -> []
  | pat :: rest ->
      let id = Pattern.id pat in
      if List.mem id seen then dedup seen rest else pat :: dedup (id :: seen) rest

(* All generalizations of a pattern pair, normalized by rewrite rule 0 and
   deduplicated. *)
let pair p q =
  if p = [] || q = [] then []
  else
    dedup []
      (List.map
         (fun rev -> Pattern.rewrite_middle_wildcards (List.rev rev))
         (generalize_step [] p q []))

(* Compatibility: only candidates over the same table with the same data type
   are generalized together (the paper's "data type and namespace" check). *)
let compatible (a : Candidate.t) (b : Candidate.t) =
  String.equal a.def.Index_def.table b.def.Index_def.table
  && Index_def.equal_data_type a.def.Index_def.dtype b.def.Index_def.dtype

(* Guard against pathological explosion on adversarial workloads; far above
   anything the experiments produce. *)
let max_candidates = 20_000

(* Expand the candidate set to a fixpoint: generalize every compatible pair
   (including newly produced generals), wiring DAG edges as we go.

   Candidate [i] is paired with every candidate of a smaller id, in id
   order.  New generals take the next ids, so the loop over [i] reaches
   them and every pair is considered once (DESIGN.md §5r). *)
let close set =
  let rounds = ref 0 in
  let before = Candidate.cardinality set in
  Xia_obs.Trace.with_span "generalize.close"
    ~args:(fun () ->
      [
        ("rounds", string_of_int !rounds);
        ("added", string_of_int (Candidate.cardinality set - before));
      ])
  @@ fun () ->
  let consider (a : Candidate.t) (b : Candidate.t) =
    if compatible a b then
      List.iter
        (fun pat ->
          (* [make] draws a serial for every generalization, found or new,
             so the names generated later keep their numbers. *)
          let def =
            Index_def.make ~table:a.def.Index_def.table ~pattern:pat
              ~dtype:a.def.Index_def.dtype ()
          in
          if def.pid = a.def.pid || def.pid = b.def.pid then begin
            (* One input already is the generalization of the other: record
               the edge, no new node. *)
            match Candidate.find_def set def with
            | Some parent ->
                if parent.id <> a.id then Candidate.add_edge ~parent ~child:a;
                if parent.id <> b.id then Candidate.add_edge ~parent ~child:b
            | None -> ()
          end
          else if Candidate.cardinality set < max_candidates then begin
            let parent = Candidate.add set ~origin:Candidate.General def in
            Candidate.add_edge ~parent ~child:a;
            Candidate.add_edge ~parent ~child:b
          end)
        (pair a.def.Index_def.pattern b.def.Index_def.pattern)
  in
  while !rounds < Candidate.cardinality set do
    let c = Candidate.get set !rounds in
    for j = 0 to !rounds - 1 do
      consider c (Candidate.get set j)
    done;
    incr rounds
  done;
  if Xia_obs.Obs.on () then begin
    Xia_obs.Metrics.add (Xia_obs.Metrics.counter "generalize.rounds") !rounds;
    Xia_obs.Metrics.add
      (Xia_obs.Metrics.counter "generalize.added")
      (Candidate.cardinality set - before)
  end;
  Candidate.compute_affected set
