(* Quickstart: compute the paper's predictability quantities (Defs. 2-5)
   for a small program on the in-order machine.

     dune exec examples/quickstart.exe

   Steps:
   1. pick a workload (a structured program + a finite set of admissible
      inputs I);
   2. build the uncertainty set Q of initial hardware states (cache
      contents, here);
   3. evaluate T_p(q, i) over Q x I and derive Pr, SIPr, IIPr, BCET, WCET;
   4. bracket them with the sound static bounds LB and UB. *)

let () =
  (* 1. The program under analysis: binary search over a 16-entry table. *)
  let w = Isa.Workload.bsearch ~n:16 in
  let program, shapes = Isa.Workload.program w in
  Printf.printf "workload: %s (%s)\n" w.Isa.Workload.name
    w.Isa.Workload.description;
  Printf.printf "admissible inputs |I| = %d\n" (List.length w.Isa.Workload.inputs);

  (* 2. Uncertainty about the initial hardware state: a cold machine plus
     five warmed cache states. *)
  let states = Predictability.Harness.inorder_states program w in
  Printf.printf "initial hardware states |Q| = %d\n\n" (List.length states);

  (* 3. Exhaustive evaluation of T_p(q, i). *)
  let matrix =
    Predictability.Quantify.evaluate ~states ~inputs:w.Isa.Workload.inputs
      ~time:(Pipeline.Inorder.time program) ()
  in
  let pr = Predictability.Quantify.pr matrix in
  let sipr = Predictability.Quantify.sipr matrix in
  let iipr = Predictability.Quantify.iipr matrix in
  Printf.printf "Pr_p(Q, I) = %s   (Def. 3: min T / max T over Q x I)\n"
    (Predictability.Harness.ratio_string pr);
  Printf.printf "SIPr_p     = %s   (Def. 4: hardware-state-induced)\n"
    (Predictability.Harness.ratio_string sipr);
  Printf.printf "IIPr_p     = %s   (Def. 5: input-induced)\n\n"
    (Predictability.Harness.ratio_string iipr);

  (* 4. Sound static bounds around the exhaustive BCET/WCET. *)
  let bcet = Predictability.Quantify.bcet matrix in
  let wcet = Predictability.Quantify.wcet matrix in
  let config =
    { Analysis.Wcet.icache =
        Analysis.Wcet.Cached_fetch
          { config = Predictability.Harness.icache_config;
            hit = Predictability.Harness.icache_hit;
            miss = Predictability.Harness.icache_miss };
      dmem =
        Analysis.Wcet.Range_data
          { best = Predictability.Harness.dcache_hit;
            worst = Predictability.Harness.dcache_miss };
      unroll = true; budget = None }
  in
  let ub = (Analysis.Wcet.bound config Analysis.Wcet.Upper ~shapes ~entry:"main").Analysis.Wcet.bound in
  let lb = (Analysis.Wcet.bound { config with unroll = false } Analysis.Wcet.Lower ~shapes ~entry:"main").Analysis.Wcet.bound in
  let summary = { Predictability.Measures.lb; bcet; wcet; ub } in
  Format.printf "%a@." Predictability.Measures.pp summary;
  Printf.printf "well-ordered (Figure 1 invariant): %b\n"
    (Predictability.Measures.well_ordered summary)
