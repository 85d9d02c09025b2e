(* FIG1 — Figure 1 of the paper: the distribution of execution times of one
   program between BCET and WCET, bracketed by the sound analysis bounds
   LB <= BCET and WCET <= UB, separating input-/state-induced variance from
   abstraction-induced overestimation. *)

let run () =
  let w = Isa.Workload.bubble_sort ~n:5 in
  let program, shapes = Isa.Workload.program w in
  let states = Harness.inorder_states program w in
  (* Fast engine (gated by the FIG1.FAST oracle): bit-identical matrix. *)
  let matrix =
    Quantify.evaluate_timer ~states ~inputs:w.Isa.Workload.inputs
      (Harness.inorder_timer program)
  in
  let bcet = Quantify.bcet matrix and wcet = Quantify.wcet matrix in
  let ub_result, lb_result =
    Analysis.Wcet.bracket ~upper:(Harness.cached_analysis ~unroll:true)
      ~lower:(Harness.cached_analysis ~unroll:false) ~shapes ~entry:"main" ()
  in
  let ub = ub_result.Analysis.Wcet.bound
  and lb = lb_result.Analysis.Wcet.bound in
  let summary = { Measures.lb; bcet; wcet; ub } in
  let histogram = Prelude.Histogram.of_samples ~bins:12 (Quantify.times matrix) in
  let pr, sipr, iipr =
    (Quantify.pr matrix, Quantify.sipr matrix, Quantify.iipr matrix)
  in
  let body =
    Buffer.create 512
  in
  Buffer.add_string body
    (Printf.sprintf "workload: %s, %d inputs x %d hardware states\n"
       w.Isa.Workload.name
       (List.length w.Isa.Workload.inputs) (List.length states));
  Buffer.add_string body
    (Prelude.Histogram.render histogram
       ~markers:[ ("LB", lb); ("BCET", bcet); ("WCET", wcet); ("UB", ub) ]);
  Buffer.add_string body
    (Printf.sprintf
       "state+input variance (WCET-BCET) = %d, abstraction variance ((UB-WCET)+(BCET-LB)) = %d\n"
       (Measures.state_input_variance summary)
       (Measures.abstraction_variance summary));
  Buffer.add_string body
    (Printf.sprintf "Pr = %s   SIPr = %s   IIPr = %s   WCET/UB = %s\n"
       (Harness.ratio_string pr) (Harness.ratio_string sipr)
       (Harness.ratio_string iipr)
       (Harness.ratio_string (Measures.thiele_wilhelm_overestimation summary)));
  { Report.title = "Distribution of execution times with LB/BCET/WCET/UB";
    body = Buffer.contents body;
    checks =
      [ Report.check "LB <= BCET <= WCET <= UB" (Measures.well_ordered summary);
        Report.check "input+state-induced variance is non-degenerate"
          (Measures.state_input_variance summary > 0);
        Report.check "sound analyses overapproximate (UB > WCET or LB < BCET)"
          (Measures.abstraction_variance summary > 0);
        Report.check "Pr <= SIPr and Pr <= IIPr"
          Prelude.Ratio.(pr <= sipr && pr <= iipr) ] }
