(* TAB1.R5 — PRET (Lickly et al.): the thread-interleaved pipeline gives a
   thread constant, context-independent timing — co-running threads share no
   pipeline state — at the price of single-thread performance (each thread
   owns every fourth slot). Input-induced variance is untouched: PRET
   removes the hardware context as a source of uncertainty, not the
   program's own data dependence. *)

let outcome_of w index =
  let program, _ = Isa.Workload.program w in
  let inputs = w.Isa.Workload.inputs in
  let input = List.nth inputs (index mod List.length inputs) in
  Isa.Exec.run program input

let run () =
  let victim_a = outcome_of (Isa.Workload.fir ~taps:2 ~samples:3) 0 in
  let victim_b = outcome_of (Isa.Workload.fir ~taps:2 ~samples:3) 5 in
  let crc = outcome_of (Isa.Workload.crc ~bits:10) 0 in
  let branchy = outcome_of (Isa.Workload.branchy ~n:12) 0 in
  let matmul = outcome_of (Isa.Workload.matmul ~n:3) 0 in
  let max_array = outcome_of (Isa.Workload.max_array ~n:10) 0 in
  let victim_time victim co =
    match (Pipeline.Interleaved.run ~threads:(victim :: co)).Pipeline.Interleaved.per_thread_cycles with
    | t :: _ -> t
    | [] -> assert false
  in
  let contexts =
    [ ("crc, branchy, matmul", [ crc; branchy; matmul ]);
      ("matmul, matmul, crc", [ matmul; matmul; crc ]);
      ("max_array, crc, branchy", [ max_array; crc; branchy ]) ]
  in
  let table =
    Prelude.Table.make
      ~header:[ "co-running threads"; "victim time (input A)";
                "victim time (input B)" ]
  in
  let times_a = List.map (fun (_, co) -> victim_time victim_a co) contexts in
  let times_b = List.map (fun (_, co) -> victim_time victim_b co) contexts in
  List.iter2
    (fun (label, _) (ta, tb) ->
       Prelude.Table.add_row table [ label; string_of_int ta; string_of_int tb ])
    contexts (List.combine times_a times_b);
  let solo = Pipeline.Interleaved.solo_time victim_a in
  let interleaved =
    match times_a with t :: _ -> t | [] -> assert false
  in
  let constant xs =
    match xs with
    | [] -> true
    | x :: rest -> List.for_all (fun y -> y = x) rest
  in
  let body =
    Prelude.Table.render table
    ^ Printf.sprintf
        "single-thread (dedicated pipeline) time: %d; interleaved thread time: %d (%.1fx)\n"
        solo interleaved (float_of_int interleaved /. float_of_int solo)
  in
  { Report.title = "PRET thread-interleaved pipeline: context-independent thread timing";
    body;
    checks =
      [ Report.check "victim time identical across all co-runner mixes (input A)"
          (constant times_a);
        Report.check "victim time identical across all co-runner mixes (input B)"
          (constant times_b);
        Report.check "input-induced variance remains (time A <> time B)"
          (match times_a, times_b with
           | ta :: _, tb :: _ -> ta <> tb
           | _, _ -> false);
        Report.check "single-thread performance is sacrificed (>= 3x slower)"
          (interleaved >= 3 * solo) ] }
