(* EXT.ATLAS — the template applied across the whole workload zoo: for every
   registered program, the timing-predictability quantities of Defs. 3-5
   over the standard uncertainty sets, bracketed by the sound static bounds.
   One table that exercises the full stack (ISA, caches, predictor, in-order
   machine, must/may analysis, structural bounds) and makes the workloads
   comparable: loop-free and counted-loop kernels sit near the top,
   data-dependent search/sort near the bottom. *)

type row = {
  name : string;
  pr : Prelude.Ratio.t;
  sipr : Prelude.Ratio.t;
  iipr : Prelude.Ratio.t;
  summary : Measures.timing_summary;
}

let measure (name, make) =
  let w : Isa.Workload.t = make () in
  let program, shapes = Isa.Workload.program w in
  let states = Harness.inorder_states program w in
  (* Cap the input count so the atlas stays quick for the big input sets. *)
  let inputs = Prelude.Listx.take 40 w.Isa.Workload.inputs in
  (* Fast engine (gated by the FIG1.FAST oracle): bit-identical matrix. *)
  let matrix =
    Quantify.evaluate_timer ~states ~inputs (Harness.inorder_timer program)
  in
  let ub_result, lb_result =
    Analysis.Wcet.bracket ~upper:(Harness.cached_analysis ~unroll:true)
      ~lower:(Harness.cached_analysis ~unroll:false) ~shapes ~entry:"main" ()
  in
  let ub = ub_result.Analysis.Wcet.bound
  and lb = lb_result.Analysis.Wcet.bound in
  { name;
    pr = Quantify.pr matrix;
    sipr = Quantify.sipr matrix;
    iipr = Quantify.iipr matrix;
    summary =
      { Measures.lb; bcet = Quantify.bcet matrix; wcet = Quantify.wcet matrix;
        ub } }

let run () =
  (* One row per workload, each an independent Q*I sweep plus two bound
     walks: the natural unit of parallelism for this experiment. *)
  let rows = Prelude.Parallel.map measure Isa.Workload.registry in
  let sorted =
    List.sort (fun a b -> Prelude.Ratio.compare b.pr a.pr) rows
  in
  let table =
    Prelude.Table.make
      ~header:[ "workload"; "Pr"; "SIPr"; "IIPr"; "LB"; "BCET"; "WCET"; "UB" ]
  in
  List.iter
    (fun r ->
       Prelude.Table.add_row table
         [ r.name;
           Printf.sprintf "%.3f" (Prelude.Ratio.to_float r.pr);
           Printf.sprintf "%.3f" (Prelude.Ratio.to_float r.sipr);
           Printf.sprintf "%.3f" (Prelude.Ratio.to_float r.iipr);
           string_of_int r.summary.Measures.lb;
           string_of_int r.summary.Measures.bcet;
           string_of_int r.summary.Measures.wcet;
           string_of_int r.summary.Measures.ub ])
    sorted;
  let find name =
    match List.find_opt (fun r -> r.name = name) rows with
    | Some r -> r
    | None -> assert false
  in
  { Report.title = "Predictability atlas: Defs. 3-5 + sound bounds across all workloads";
    body = Prelude.Table.render table;
    checks =
      [ Report.check "LB <= BCET <= WCET <= UB for every workload"
          (List.for_all (fun r -> Measures.well_ordered r.summary) rows);
        Report.check "Pr <= min(SIPr, IIPr) for every workload"
          (List.for_all
             (fun r ->
                Prelude.Ratio.(r.pr <= r.sipr) && Prelude.Ratio.(r.pr <= r.iipr))
             rows);
        Report.check "fibonacci (single-path by construction) has IIPr = 1"
          (Prelude.Ratio.equal (find "fibonacci").iipr Prelude.Ratio.one);
        Report.check
          "input-dependent search is less input-predictable than counted-loop code"
          Prelude.Ratio.((find "bsearch").iipr < (find "vector_dot").iipr) ] }
