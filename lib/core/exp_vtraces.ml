(* TAB1.R6 — Whitham-Audsley virtual traces: constrain or eliminate every
   variability source of the out-of-order pipeline — reset the units at
   trace boundaries (removing all influence of the past, including the
   initial pipeline state) and force worst-case latencies on the
   variable-latency units. State- and input-induced variability collapse to
   none on fixed-path code, at a throughput cost. *)

let initial_units = [ (0, 0); (3, 0); (0, 5); (7, 2); (12, 9) ]

let run () =
  (* The mul-chain kernel is latency-bound (a loop-carried multiply chain),
     so initial pipeline occupancy propagates into the total time on the
     baseline machine — unlike fetch-bound kernels, which absorb it. *)
  let w = Exp_superscalar.kernel_workload () in
  let program, _ = Isa.Workload.program w in
  let evaluate config =
    Quantify.evaluate ~states:initial_units ~inputs:w.Isa.Workload.inputs
      ~time:(fun init input -> Pipeline.Ooo.time config ~init program input) ()
  in
  let plain = evaluate (Pipeline.Ooo.trace_config ()) in
  let vtraces =
    evaluate
      (Pipeline.Ooo.trace_config ~virtual_traces:true ~constant_ops:true ())
  in
  let table =
    Prelude.Table.make
      ~header:[ "mode"; "SIPr"; "IIPr"; "BCET"; "WCET" ]
  in
  let row name matrix =
    Prelude.Table.add_row table
      [ name; Harness.ratio_string (Quantify.sipr matrix);
        Harness.ratio_string (Quantify.iipr matrix);
        string_of_int (Quantify.bcet matrix);
        string_of_int (Quantify.wcet matrix) ]
  in
  row "out-of-order, greedy (baseline)" plain;
  row "virtual traces (reset + constant-time ops)" vtraces;
  { Report.title = "Predictable out-of-order execution using virtual traces";
    body = Prelude.Table.render table;
    checks =
      [ Report.check "virtual traces: SIPr = 1 (no state-induced variability)"
          (Prelude.Ratio.equal (Quantify.sipr vtraces) Prelude.Ratio.one);
        Report.check "virtual traces: IIPr = 1 on this fixed-path workload"
          (Prelude.Ratio.equal (Quantify.iipr vtraces) Prelude.Ratio.one);
        Report.check "baseline OoO is state-sensitive (SIPr < 1)"
          Prelude.Ratio.(Quantify.sipr plain < Prelude.Ratio.one);
        Report.check "baseline OoO is input-sensitive (IIPr < 1)"
          Prelude.Ratio.(Quantify.iipr plain < Prelude.Ratio.one);
        Report.check "predictability is bought with throughput (WCET_vt >= WCET)"
          (Quantify.wcet vtraces >= Quantify.wcet plain) ] }
