(* EXT.PIPE — pipelining without anomalies: the five-stage hazard-aware
   pipeline overlaps instructions (faster than the sequential in-order cost
   model on every workload) yet all of its timing recurrences are max/plus,
   so extra initial delay can only push completion later — in-order
   pipelining buys throughput without giving up the anomaly-freedom that
   makes the machine analysable, in contrast to the greedy out-of-order
   dispatcher of RW.ANOMALY. *)

let workloads () =
  [ Isa.Workload.crc ~bits:8; Isa.Workload.max_array ~n:8;
    Isa.Workload.fir ~taps:2 ~samples:3; Isa.Workload.bsearch ~n:16;
    Isa.Workload.fibonacci ~n:12 ]

let run () =
  let table =
    Prelude.Table.make
      ~header:[ "workload"; "sequential in-order (WCET)";
                "5-stage pipelined (WCET)"; "speedup";
                "monotone in start delay?" ]
  in
  let checks = ref [] in
  List.iter
    (fun (w : Isa.Workload.t) ->
       let program, _ = Isa.Workload.program w in
       let sequential_times, pipelined_times =
         List.split
           (List.map
              (fun input ->
                 let outcome = Isa.Exec.run program input in
                 let seq =
                   (Pipeline.Inorder.run program (Pipeline.Inorder.state ()) outcome)
                     .Pipeline.Inorder.cycles
                 in
                 let pipe =
                   (Pipeline.Scalar5.run program (Pipeline.Scalar5.state ()) outcome)
                     .Pipeline.Scalar5.cycles
                 in
                 (seq, pipe))
              w.Isa.Workload.inputs)
       in
       let monotone =
         let input =
           match w.Isa.Workload.inputs with i :: _ -> i | [] -> assert false
         in
         let outcome = Isa.Exec.run program input in
         let t delay =
           (Pipeline.Scalar5.run ~start_delay:delay program
              (Pipeline.Scalar5.state ()) outcome).Pipeline.Scalar5.cycles
         in
         let ts = List.map t [ 0; 1; 2; 3; 5; 9 ] in
         let rec non_decreasing = function
           | a :: (b :: _ as rest) -> a <= b && non_decreasing rest
           | [] | [ _ ] -> true
         in
         non_decreasing ts
       in
       let seq_wcet = Prelude.Stats.max_int_list sequential_times in
       let pipe_wcet = Prelude.Stats.max_int_list pipelined_times in
       Prelude.Table.add_row table
         [ w.Isa.Workload.name; string_of_int seq_wcet; string_of_int pipe_wcet;
           Printf.sprintf "%.2fx" (float_of_int seq_wcet /. float_of_int pipe_wcet);
           string_of_bool monotone ];
       (* The structural analysis mirrors the sequential model, so by
          dominance its UB also soundly covers the overlapped pipeline. *)
       let ub =
         let _, shapes = Isa.Workload.program w in
         (Analysis.Wcet.bound
            { Analysis.Wcet.icache = Analysis.Wcet.Flat_fetch 1;
              dmem = Analysis.Wcet.Flat_data 1; unroll = true; budget = None }
            Analysis.Wcet.Upper ~shapes ~entry:"main").Analysis.Wcet.bound
       in
       checks :=
         Report.check
           (w.Isa.Workload.name ^ ": sequential model bounds the pipeline")
           (List.for_all2 (fun s p -> p <= s) sequential_times pipelined_times)
         :: Report.check
           (w.Isa.Workload.name ^ ": completion monotone in initial delay")
           monotone
         :: Report.check
           (w.Isa.Workload.name ^ ": static UB covers the pipelined WCET too")
           (pipe_wcet <= ub)
         :: !checks)
    (workloads ());
  { Report.title = "Hazard-aware 5-stage pipelining: throughput without anomalies";
    body = Prelude.Table.render table;
    checks = List.rev !checks }
