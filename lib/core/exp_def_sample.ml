(* DEF.SAMPLE — the sampling oracle for Defs. 3-5: on every registry
   workload, the seeded estimators (Sampling.Sampler via Quantify.sample)
   must bracket the exhaustively computed ground truth — exhaustive
   Pr/SIPr/IIPr and mean inside their reported CIs, exhaustive BCET/WCET
   inside the extrapolated tail CIs — and the whole report must be a pure
   function of the seed: bit-identical at jobs 1/2/4/8, bit-identical on a
   repeated run, and actually sensitive to the seed (a different seed
   draws different cells). This is the gate that lets the CLI and the
   benchmark suite trust a sampled number that no exhaustive sweep
   double-checks. *)

type wrow = {
  row : Sampled.row;              (* cross-checked run at jobs 1 *)
  jobs_identical : bool;          (* sampled result equal at jobs 1/2/4/8 *)
  rerun_identical : bool;         (* same seed, fresh run: equal *)
  seed_sensitive : bool;          (* seed+1 draws a different cell stream *)
}

let jobs_grid = [ 1; 2; 4; 8 ]

(* Every pass here reads something a check reads. The grid's jobs-1 run is
   a fresh run at the cross-checked run's seed, so it doubles as the rerun;
   the shifted seed is compared on its cells alone, which are drawn before
   any bootstrap, so it skips the bootstraps. *)
let measure entry =
  let row = Sampled.analyze ~jobs:1 ~cross_check:true entry in
  let sampled_at jobs spec =
    (Sampled.analyze ~jobs ~spec ~cross_check:false entry).Sampled.sampled
  in
  let spec = Sampling.Sampler.default in
  let grid = List.map (fun jobs -> (jobs, sampled_at jobs spec)) jobs_grid in
  let jobs_identical =
    List.for_all (fun (_, s) -> s = row.Sampled.sampled) grid
  in
  let rerun_identical = List.assoc 1 grid = row.Sampled.sampled in
  let seed_sensitive =
    let shifted =
      sampled_at 1 { spec with seed = spec.seed + 1; resamples = 0 }
    in
    shifted.Sampling.Sampler.cells <> row.Sampled.sampled.Sampling.Sampler.cells
  in
  { row; jobs_identical; rerun_identical; seed_sensitive }

let run () =
  let rows = Prelude.Parallel.map measure Isa.Workload.registry in
  let table =
    Prelude.Table.make
      ~header:[ "workload"; "Pr est [99% CI]"; "Pr"; "in"; "SIPr"; "IIPr";
                "mean"; "tails"; "jobs 1/2/4/8" ]
  in
  let yn b = if b then "yes" else "NO" in
  List.iter
    (fun r ->
       let s = r.row.Sampled.sampled in
       let x = Option.get r.row.Sampled.exhaustive in
       Prelude.Table.add_row table
         [ r.row.Sampled.workload;
           Sampling.Estimate.to_string s.Sampling.Sampler.pr;
           Printf.sprintf "%.4f" (Prelude.Ratio.to_float x.Sampled.x_pr);
           yn (Sampled.pr_contained r.row);
           yn (Sampled.sipr_contained r.row);
           yn (Sampled.iipr_contained r.row);
           yn (Sampled.mean_contained r.row);
           yn (Sampled.tails_bracket r.row);
           yn (r.jobs_identical && r.rerun_identical) ])
    rows;
  { Report.title =
      "Sampling oracle: seeded estimators bracket the exhaustive quantities";
    body = Prelude.Table.render table;
    checks =
      [ Report.check "exhaustive Pr inside the sampled CI on every workload"
          (List.for_all (fun r -> Sampled.pr_contained r.row) rows);
        Report.check "exhaustive SIPr inside the stratified CI"
          (List.for_all (fun r -> Sampled.sipr_contained r.row) rows);
        Report.check "exhaustive IIPr inside the stratified CI"
          (List.for_all (fun r -> Sampled.iipr_contained r.row) rows);
        Report.check "exhaustive mean inside the normal-approximation CI"
          (List.for_all (fun r -> Sampled.mean_contained r.row) rows);
        Report.check "tail estimates bracket the exhaustive [BCET, WCET]"
          (List.for_all (fun r -> Sampled.tails_bracket r.row) rows);
        Report.check "results bit-identical across jobs 1/2/4/8"
          (List.for_all (fun r -> r.jobs_identical) rows);
        Report.check "repeated runs at the same seed are bit-identical"
          (List.for_all (fun r -> r.rerun_identical) rows);
        Report.check "a shifted seed draws a different cell stream"
          (List.for_all (fun r -> r.seed_sensitive) rows) ] }
