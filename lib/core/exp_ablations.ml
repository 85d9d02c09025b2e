(* ABLATIONS — the design-choice studies DESIGN.md calls out:
   (1) loop-context virtual unrolling in the cache/WCET analysis (precision
       of UB at unchanged soundness);
   (2) CCSP burst-allowance sweep (bound grows with burst, observation stays
       within it);
   (3) TDM slot-size sweep (composability is exact at every slot size;
       bandwidth cost varies). *)

let unroll_study () =
  let w = Isa.Workload.fir ~taps:3 ~samples:4 in
  let program, shapes = Isa.Workload.program w in
  let states = Harness.inorder_states program w in
  let matrix =
    Quantify.evaluate ~states ~inputs:w.Isa.Workload.inputs
      ~time:(Pipeline.Inorder.time program) ()
  in
  let wcet = Quantify.wcet matrix in
  let ub unroll =
    (Analysis.Wcet.bound (Harness.cached_analysis ~unroll) Analysis.Wcet.Upper
       ~shapes ~entry:"main").Analysis.Wcet.bound
  in
  let ub_plain = ub false and ub_unrolled = ub true in
  (wcet, ub_plain, ub_unrolled)

let ccsp_study () =
  let clients = 4 and service = 4 in
  let victim =
    List.init 8 (fun i ->
        { Arbiter.Arbitration.client = 0; arrival = 2 + (i * 25); service })
  in
  let others =
    List.concat_map
      (fun c ->
         List.init 20 (fun i ->
             { Arbiter.Arbitration.client = c; arrival = i * 6; service }))
      [ 1; 2; 3 ]
  in
  List.map
    (fun burst ->
       let policy =
         Arbiter.Arbitration.Ccsp { rate_num = 1; rate_den = 4 * service; burst }
       in
       let served = Arbiter.Arbitration.simulate policy ~clients (victim @ others) in
       let observed =
         Prelude.Stats.max_int_list
           (List.filter_map
              (fun (s : Arbiter.Arbitration.served) ->
                 if s.request.Arbiter.Arbitration.client = 0
                 then Some (Arbiter.Arbitration.latency s)
                 else None)
              served)
       in
       let bound =
         match Arbiter.Arbitration.latency_bound policy ~clients ~service with
         | Some b -> b
         | None -> -1
       in
       (burst, observed, bound))
    [ 1; 2; 4 ]

let tdm_slot_study () =
  let clients = 4 and service = 4 in
  let victim =
    List.init 8 (fun i ->
        { Arbiter.Arbitration.client = 0; arrival = 1 + (i * 17); service })
  in
  let co intensity =
    List.concat_map
      (fun c ->
         List.init (6 * intensity) (fun i ->
             { Arbiter.Arbitration.client = c; arrival = i * (12 / intensity);
               service }))
      [ 1; 2; 3 ]
  in
  List.map
    (fun slot ->
       let link = Noc.Link.make ~policy:(Arbiter.Arbitration.Tdm { slot }) ~clients in
       let composable =
         Noc.Link.composable link ~victim ~co_runners_a:(co 1) ~co_runners_b:(co 2)
       in
       let worst =
         Prelude.Stats.max_int_list
           (Noc.Link.client_latencies (Noc.Link.run link (victim @ co 2)) ~client:0)
       in
       (slot, composable, worst))
    [ 4; 6; 8 ]

let run () =
  let wcet, ub_plain, ub_unrolled = unroll_study () in
  let ccsp = ccsp_study () in
  let tdm = tdm_slot_study () in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "(1) analysis context-sensitivity: WCET=%d, UB(no unroll)=%d, UB(unrolled)=%d\n"
       wcet ub_plain ub_unrolled);
  List.iter
    (fun (burst, observed, bound) ->
       Buffer.add_string buf
         (Printf.sprintf "(2) CCSP burst=%d: observed=%d bound=%d\n"
            burst observed bound))
    ccsp;
  List.iter
    (fun (slot, composable, worst) ->
       Buffer.add_string buf
         (Printf.sprintf "(3) TDM slot=%d: composable=%b victim worst=%d\n"
            slot composable worst))
    tdm;
  let ccsp_monotone =
    let bounds = List.map (fun (_, _, b) -> b) ccsp in
    List.sort Stdlib.compare bounds = bounds
  in
  { Report.title = "Ablations: analysis unrolling, CCSP burst sweep, TDM slot sweep";
    body = Buffer.contents buf;
    checks =
      [ Report.check "virtual unrolling tightens UB without unsoundness"
          (ub_unrolled <= ub_plain && wcet <= ub_unrolled);
        Report.check "CCSP observation within bound at every burst setting"
          (List.for_all (fun (_, o, b) -> o <= b) ccsp);
        Report.check "CCSP bound grows with the burst allowance" ccsp_monotone;
        Report.check "TDM composability holds at every slot size"
          (List.for_all (fun (_, c, _) -> c) tdm) ] }
