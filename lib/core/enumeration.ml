(* Basic candidate enumeration (Section IV).

   Every workload statement is optimized in the Enumerate Indexes mode; the
   patterns the optimizer matched against the universal virtual index become
   basic candidates, each recording which statements produced it (the seed of
   its affected set). *)

module Index_def = Xia_index.Index_def

(* Enumerate basic candidates for a workload into a fresh candidate set. *)
let basic_candidates catalog (workload : Xia_workload.Workload.t) =
  let set = Candidate.create_set () in
  Xia_obs.Trace.with_span "enumeration.basic"
    ~args:(fun () ->
      [
        ("statements", string_of_int (List.length workload));
        ("candidates", string_of_int (Candidate.cardinality set));
      ])
    (fun () ->
      List.iteri
        (fun stmt_index (item : Xia_workload.Workload.item) ->
          let patterns =
            Xia_optimizer.Optimizer.enumerate_indexes catalog item.statement
          in
          if Xia_obs.Obs.on () then begin
            Xia_obs.Metrics.incr (Xia_obs.Metrics.counter "enumeration.statements");
            Xia_obs.Metrics.add
              (Xia_obs.Metrics.counter "enumeration.patterns")
              (List.length patterns)
          end;
          List.iter
            (fun (table, pattern, dtype) ->
              let def = Index_def.make ~table ~pattern ~dtype () in
              let c = Candidate.add set ~origin:Candidate.Basic def in
              Candidate.mark_affected c stmt_index)
            patterns)
        workload);
  set

(* Full candidate generation: enumerate then generalize. *)
let candidates catalog workload =
  Xia_obs.Trace.with_span "enumeration.candidates" (fun () ->
      let set = basic_candidates catalog workload in
      Generalize.close set;
      set)
