(* FIG1.SOUND — the Figure-1 soundness oracle, machine-checked per workload:
   the static bracket must contain every observation (LB <= min observed
   time <= max observed time <= UB), and the dataflow layer's interval
   analysis must contain every observed final register value. This pins the
   new lib/dataflow abstract interpretation to the same concrete semantics
   (Isa.Exec) that Figure 1's execution-time distributions come from, and
   gates the linter: no shipped workload may carry an error-severity
   finding. *)

type row = {
  name : string;
  lb : int;
  observed_min : int;
  observed_max : int;
  ub : int;
  times_bracketed : bool;
  regs_contained : bool;
  lint_errors : int;
}

let measure (name, make) =
  let w : Isa.Workload.t = make () in
  let program, shapes = Isa.Workload.program w in
  let states = Harness.inorder_states program w in
  let inputs = Prelude.Listx.take Sampled.input_cap w.Isa.Workload.inputs in
  (* Fast engine (gated by the FIG1.FAST oracle): bit-identical matrix. *)
  let matrix =
    Quantify.evaluate_timer ~states ~inputs (Harness.inorder_timer program)
  in
  let ub_result, lb_result =
    Analysis.Wcet.bracket ~upper:(Harness.cached_analysis ~unroll:true)
      ~lower:(Harness.cached_analysis ~unroll:false) ~shapes ~entry:"main" ()
  in
  let lb = lb_result.Analysis.Wcet.bound
  and ub = ub_result.Analysis.Wcet.bound in
  let observed_min = Quantify.bcet matrix
  and observed_max = Quantify.wcet matrix in
  let final_env = Dataflow.Interval.final_env (Dataflow.Interval.analyze program) in
  let regs_contained =
    List.for_all
      (fun input ->
         let outcome = Isa.Exec.run program input in
         List.for_all
           (fun r ->
              Dataflow.Interval.mem
                outcome.Isa.Exec.final_regs.(Isa.Reg.index r)
                (Dataflow.Interval.reg final_env r))
           Isa.Reg.all)
      inputs
  in
  { name; lb; observed_min; observed_max; ub;
    times_bracketed = lb <= observed_min && observed_min <= observed_max
                      && observed_max <= ub;
    regs_contained;
    lint_errors = Dataflow.Lint.errors (Dataflow.Lint.check_workload w) }

let run () =
  let rows = Prelude.Parallel.map measure Isa.Workload.registry in
  let table =
    Prelude.Table.make
      ~header:[ "workload"; "LB"; "min obs"; "max obs"; "UB";
                "times in [LB,UB]"; "regs in intervals"; "lint errors" ]
  in
  List.iter
    (fun r ->
       Prelude.Table.add_row table
         [ r.name; string_of_int r.lb; string_of_int r.observed_min;
           string_of_int r.observed_max; string_of_int r.ub;
           (if r.times_bracketed then "yes" else "NO");
           (if r.regs_contained then "yes" else "NO");
           string_of_int r.lint_errors ])
    rows;
  { Report.title = "Figure-1 soundness oracle: bounds and intervals contain all observations";
    body = Prelude.Table.render table;
    checks =
      [ Report.check "LB <= min observed <= max observed <= UB for every workload"
          (List.for_all (fun r -> r.times_bracketed) rows);
        Report.check
          "interval analysis contains every observed final register value"
          (List.for_all (fun r -> r.regs_contained) rows);
        Report.check "no workload has an error-severity lint finding"
          (List.for_all (fun r -> r.lint_errors = 0) rows) ] }
