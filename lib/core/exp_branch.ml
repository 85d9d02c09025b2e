(* TAB1.R1 — WCET-oriented static branch prediction (Bodin-Puaut,
   Burguière-Rochange). Static schemes admit tight structural misprediction
   bounds and have no initial-state-induced variability; dynamic tables
   predict well on average but any sound bound must assume a worst-case
   table, and their misprediction counts vary with the initial predictor
   state. *)

let scheme_rows program shapes (w : Isa.Workload.t) =
  let traces = Harness.outcomes program w.Isa.Workload.inputs in
  let branch_traces =
    List.map (Pipeline.Trace_util.branch_events program) traces
  in
  let sites = Analysis.Mispredict.sites ~shapes ~entry:"main" in
  let observed_for predictor =
    List.map
      (fun outcome -> Analysis.Mispredict.observed predictor program outcome)
      traces
  in
  let static_schemes =
    [ Branchpred.Predictor.Always_not_taken;
      Branchpred.Predictor.Btfn;
      Branchpred.Predictor.wcet_oriented branch_traces ]
  in
  let static_rows =
    List.map
      (fun scheme ->
         let predictor = Branchpred.Predictor.static scheme in
         let bound = Analysis.Mispredict.static_bound scheme sites in
         let observed = observed_for predictor in
         (Branchpred.Predictor.describe predictor, bound,
          Prelude.Stats.max_int_list observed, 0))
      static_schemes
  in
  let dynamic_row =
    let base = Branchpred.Predictor.two_bit ~entries:16 ~init:0 in
    let states = Branchpred.Predictor.initial_states base in
    let per_state = List.map observed_for states in
    let worst =
      Prelude.Stats.max_int_list (List.concat per_state)
    in
    let state_variability =
      (* max over inputs of the spread across initial predictor states *)
      let per_input = Prelude.Listx.transpose per_state in
      Prelude.Stats.max_int_list
        (List.map
           (fun xs -> Prelude.Stats.max_int_list xs - Prelude.Stats.min_int_list xs)
           per_input)
    in
    (Branchpred.Predictor.describe base,
     Analysis.Mispredict.dynamic_bound sites, worst, state_variability)
  in
  (w.Isa.Workload.name, static_rows @ [ dynamic_row ])

let run () =
  let specs =
    [ Isa.Workload.branchy ~n:16; Isa.Workload.crc ~bits:12 ]
  in
  let table =
    Prelude.Table.make
      ~header:[ "workload"; "scheme"; "static bound"; "observed worst";
                "state-induced variability" ]
  in
  let checks = ref [] in
  List.iter
    (fun w ->
       let program, shapes = Isa.Workload.program w in
       let name, rows = scheme_rows program shapes w in
       List.iter
         (fun (scheme, bound, worst, variability) ->
            Prelude.Table.add_row table
              [ name; scheme; string_of_int bound; string_of_int worst;
                string_of_int variability ];
            checks :=
              Report.check
                (Printf.sprintf "%s/%s: observed (%d) within bound (%d)"
                   name scheme worst bound)
                (worst <= bound)
              :: !checks)
         rows;
       (match rows with
        | [ (_, b_nt, _, v_nt); (_, _, _, _); (_, b_wcet, _, _);
            (_, b_dyn, _, v_dyn) ] ->
          checks :=
            Report.check
              (Printf.sprintf
                 "%s: WCET-oriented bound (%d) <= always-not-taken bound (%d)"
                 name b_wcet b_nt)
              (b_wcet <= b_nt)
            :: Report.check
              (Printf.sprintf "%s: static schemes are state-insensitive" name)
              (v_nt = 0)
            :: Report.check
              (Printf.sprintf
                 "%s: dynamic predictor is state-sensitive (variability %d > 0)"
                 name v_dyn)
              (v_dyn > 0)
            :: Report.check
              (Printf.sprintf
                 "%s: sound dynamic bound (%d) looser than WCET-oriented static bound (%d)"
                 name b_dyn b_wcet)
              (b_dyn >= b_wcet)
            :: !checks
        | _ -> ());
       Prelude.Table.add_separator table)
    specs;
  { Report.title = "WCET-oriented static branch prediction vs dynamic schemes";
    body = Prelude.Table.render table;
    checks = List.rev !checks }
