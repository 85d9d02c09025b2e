(* DEF.CERT — the certifier oracle. The static certificates of
   Analysis.Certify claim facts about the template quantities (Defs. 3-5)
   without executing anything; this experiment checks every claim against
   the executing evaluation modes on the whole registry:

   - an Invariant verdict on the flat machine must coincide exactly with
     exhaustive timing invariance (every T(q, i) equal — Pr = SIPr =
     IIPr = 1), in both directions: no unsound Invariant, and no
     imprecise Bounded on a workload that is actually invariant;
   - every bracket must contain the exhaustive observations
     (LB <= BCET <= WCET <= UB) and every spread bound must contain the
     observed spread (WCET - BCET <= spread_ub), on both machines;
   - the sampled estimates (the DEF.SAMPLE machinery at its default,
     seeded spec) must be consistent with the certificate: the mean CI
     inside [LB, UB], and the Pr/SIPr/IIPr CIs compatible with the
     certified lower bound Pr >= 1 - spread_ub/LB (the pWCET-style tails
     deliberately extrapolate outside the exhaustive range, so they are
     checked by DEF.SAMPLE, not against the bracket);
   - the single-path transformation must do exactly what it exists to
     do: kill the branch channel (zero branch leaks after, strictly
     fewer total leaks whenever a branch leaked before) and never add a
     leak. *)

let count_channel ch (c : Analysis.Certify.certificate) =
  List.length
    (List.filter
       (fun (l : Dataflow.Taint.leak) -> l.Dataflow.Taint.channel = ch)
       c.Analysis.Certify.leaks)

type sp_status =
  | Untransformable
  | Transformed of {
      leaks_before : int;
      leaks_after : int;
      branch_before : int;
      branch_after : int;
    }

type row = {
  name : string;
  flat : Analysis.Certify.certificate;
  cached : Analysis.Certify.certificate;
  flat_equal : bool;       (* exhaustive: all flat times identical *)
  flat_bracketed : bool;
  flat_spread_ok : bool;
  cached_equal : bool;
  cached_bracketed : bool;
  cached_spread_ok : bool;
  flat_spread_obs : int;
  cached_spread_obs : int;
  mean_ci_ok : bool;
  ratio_cis_ok : bool;
  sp : sp_status;
}

let measure (name, make) =
  let w : Isa.Workload.t = make () in
  let program, _ = Isa.Workload.program w in
  let flat, cached =
    match Certifier.certificates w with
    | [ f; c ] -> (f, c)
    | _ -> assert false
  in
  let timer = Harness.inorder_timer program in
  (* Flat machine: a single perfect-memory state, the full input set —
     the exhaustive ground truth for the Invariant-iff check is over
     exactly the input set the taint analysis was seeded from. *)
  let flat_matrix =
    Quantify.evaluate_timer ~states:[ Pipeline.Inorder.state () ]
      ~inputs:w.Isa.Workload.inputs timer
  in
  let fb = Quantify.bcet flat_matrix and fw = Quantify.wcet flat_matrix in
  (* Cached machine: the standard uncertainty set, FIG1.SOUND input cap. *)
  let states = Harness.inorder_states program w in
  let inputs = Prelude.Listx.take Sampled.input_cap w.Isa.Workload.inputs in
  let cached_matrix = Quantify.evaluate_timer ~states ~inputs timer in
  let cb = Quantify.bcet cached_matrix and cw = Quantify.wcet cached_matrix in
  let sampled =
    Quantify.sample ~spec:Sampling.Sampler.default ~states ~inputs timer
  in
  let mean_ci_ok =
    float_of_int cached.Analysis.Certify.lb
    <= sampled.Sampling.Sampler.mean.Sampling.Estimate.ci.Sampling.Estimate.lo
    && sampled.Sampling.Sampler.mean.Sampling.Estimate.ci.Sampling.Estimate.hi
       <= float_of_int cached.Analysis.Certify.ub
  in
  (* spread_ub and LB certify Pr >= 1 - spread_ub/LB (min T >= max T -
     spread and max T >= LB > 0). A sampled ratio's point estimate is
     always >= the true ratio (subsets shrink the range), so each CI's
     upper end must sit at or above the certified bound. *)
  let pr_bound =
    1.
    -. float_of_int cached.Analysis.Certify.spread_ub
       /. float_of_int cached.Analysis.Certify.lb
  in
  let ratio_ok (e : Sampling.Estimate.t) =
    e.Sampling.Estimate.ci.Sampling.Estimate.hi >= pr_bound
  in
  let ratio_cis_ok =
    ratio_ok sampled.Sampling.Sampler.pr
    && ratio_ok sampled.Sampling.Sampler.sipr
    && ratio_ok sampled.Sampling.Sampler.iipr
  in
  let sp =
    match Singlepath.Transform.transform w with
    | sp_w ->
      let sp_flat = Analysis.Certify.certify Certifier.flat_machine sp_w in
      Transformed
        { leaks_before = List.length flat.Analysis.Certify.leaks;
          leaks_after = List.length sp_flat.Analysis.Certify.leaks;
          branch_before = count_channel Dataflow.Taint.Branch flat;
          branch_after = count_channel Dataflow.Taint.Branch sp_flat }
    | exception Singlepath.Transform.Unsupported _ -> Untransformable
  in
  { name; flat; cached;
    flat_equal = fb = fw;
    flat_bracketed = flat.Analysis.Certify.lb <= fb && fw <= flat.Analysis.Certify.ub;
    flat_spread_ok = fw - fb <= flat.Analysis.Certify.spread_ub;
    cached_equal = cb = cw;
    cached_bracketed =
      cached.Analysis.Certify.lb <= cb && cw <= cached.Analysis.Certify.ub;
    cached_spread_ok = cw - cb <= cached.Analysis.Certify.spread_ub;
    flat_spread_obs = fw - fb;
    cached_spread_obs = cw - cb;
    mean_ci_ok; ratio_cis_ok; sp }

let invariant (c : Analysis.Certify.certificate) =
  c.Analysis.Certify.verdict = Analysis.Certify.Invariant

let sp_string = function
  | Untransformable -> "-"
  | Transformed { leaks_before; leaks_after; _ } ->
    Printf.sprintf "%d -> %d" leaks_before leaks_after

let run () =
  let rows = Prelude.Parallel.map measure Isa.Workload.registry in
  let table =
    Prelude.Table.make
      ~header:
        [ "workload"; "flat verdict"; "flat spread obs/cert";
          "cached spread obs/cert"; "mean CI in [LB,UB]"; "sp leaks" ]
  in
  List.iter
    (fun r ->
       Prelude.Table.add_row table
         [ r.name;
           Analysis.Certify.verdict_name r.flat.Analysis.Certify.verdict;
           Printf.sprintf "%d / %d" r.flat_spread_obs
             r.flat.Analysis.Certify.spread_ub;
           Printf.sprintf "%d / %d" r.cached_spread_obs
             r.cached.Analysis.Certify.spread_ub;
           (if r.mean_ci_ok then "yes" else "NO");
           sp_string r.sp ])
    rows;
  let transformed =
    List.filter_map
      (fun r ->
         match r.sp with
         | Transformed { leaks_before; leaks_after; branch_before;
                         branch_after } ->
           Some (leaks_before, leaks_after, branch_before, branch_after)
         | Untransformable -> None)
      rows
  in
  { Report.title = "Certifier oracle: static verdicts match the executing modes";
    body = Prelude.Table.render table;
    checks =
      [ Report.check
          "flat Invariant verdict iff exhaustively invariant (Pr = SIPr = \
           IIPr = 1), both directions, every workload"
          (List.for_all (fun r -> invariant r.flat = r.flat_equal) rows);
        Report.check
          "cached Invariant verdicts (if any) are exhaustively invariant"
          (List.for_all
             (fun r -> (not (invariant r.cached)) || r.cached_equal)
             rows);
        Report.check "flat bracket contains observations and observed spread"
          (List.for_all (fun r -> r.flat_bracketed && r.flat_spread_ok) rows);
        Report.check
          "cached bracket contains observations and observed spread"
          (List.for_all
             (fun r -> r.cached_bracketed && r.cached_spread_ok)
             rows);
        Report.check "sampled mean CI inside the cached [LB, UB]"
          (List.for_all (fun r -> r.mean_ci_ok) rows);
        Report.check
          "sampled Pr/SIPr/IIPr CIs compatible with certified Pr >= 1 - \
           spread_ub/LB"
          (List.for_all (fun r -> r.ratio_cis_ok) rows);
        Report.check
          "single-path transform never adds a leak and kills the branch \
           channel (0 branch leaks after)"
          (List.for_all
             (fun (before, after, _, branch_after) ->
                after <= before && branch_after = 0)
             transformed);
        Report.check
          "single-path variants certify strictly fewer leaks whenever a \
           branch leaked before"
          (List.for_all
             (fun (before, after, branch_before, _) ->
                branch_before = 0 || after < before)
             transformed);
        Report.check "at least five workloads are single-path transformable"
          (List.length transformed >= 5) ] }
