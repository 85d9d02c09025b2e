(* TAB1.R3 — Time-predictable SMT (Barre et al., Mische et al.): give the
   real-time thread strict priority over the shared issue bandwidth and its
   timing becomes independent of whatever runs in the non-real-time
   threads; fair SMT mixes everyone's timing together. *)

let run () =
  let rt_program, _ = Isa.Workload.program (Isa.Workload.fir ~taps:2 ~samples:3) in
  let rt_w = Isa.Workload.fir ~taps:2 ~samples:3 in
  let rt =
    match Harness.outcomes rt_program (Prelude.Listx.take 1 rt_w.Isa.Workload.inputs) with
    | [ o ] -> o
    | _ -> assert false
  in
  let co_outcome w =
    let program, _ = Isa.Workload.program w in
    match Harness.outcomes program (Prelude.Listx.take 1 w.Isa.Workload.inputs) with
    | [ o ] -> o
    | _ -> assert false
  in
  let crc = co_outcome (Isa.Workload.crc ~bits:10) in
  let branchy = co_outcome (Isa.Workload.branchy ~n:12) in
  let matmul = co_outcome (Isa.Workload.matmul ~n:3) in
  let contexts =
    [ ("alone", []);
      ("1 co-runner (crc)", [ crc ]);
      ("2 co-runners (crc+branchy)", [ crc; branchy ]);
      ("3 co-runners (crc+branchy+matmul)", [ crc; branchy; matmul ]) ]
  in
  let table =
    Prelude.Table.make
      ~header:[ "execution context"; "RT thread time (fair SMT)";
                "RT thread time (RT-priority SMT)" ]
  in
  let fair_times = ref [] and priority_times = ref [] in
  List.iter
    (fun (label, others) ->
       let fair = Pipeline.Smt.rt_time Pipeline.Smt.Fair ~rt ~others in
       let priority = Pipeline.Smt.rt_time Pipeline.Smt.Rt_priority ~rt ~others in
       fair_times := fair :: !fair_times;
       priority_times := priority :: !priority_times;
       Prelude.Table.add_row table
         [ label; string_of_int fair; string_of_int priority ])
    contexts;
  let priority_spread =
    Prelude.Stats.max_int_list !priority_times
    - Prelude.Stats.min_int_list !priority_times
  in
  let fair_spread =
    Prelude.Stats.max_int_list !fair_times
    - Prelude.Stats.min_int_list !fair_times
  in
  let body =
    Prelude.Table.render table
    ^ Printf.sprintf
        "context-induced spread of RT thread time: fair=%d, priority=%d\n"
        fair_spread priority_spread
  in
  { Report.title = "Time-predictable SMT: RT-thread priority removes context-induced variability";
    body;
    checks =
      [ Report.check "RT-priority: RT-thread time independent of co-runners"
          (priority_spread = 0);
        Report.check "fair SMT: RT-thread time depends on co-runners"
          (fair_spread > 0);
        Report.check "fair SMT never beats RT-priority for the RT thread"
          (List.for_all2 (fun f p -> f >= p)
             (List.rev !fair_times) (List.rev !priority_times)) ] }
