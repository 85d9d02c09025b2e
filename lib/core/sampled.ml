(* Sampled predictability analysis of registered workloads: the bridge
   between the generic estimators (Sampling.Sampler over index spaces) and
   the lab's concrete machine — build the in-order uncertainty sets, run
   the estimators through the fast-path engine, and (optionally) the
   exhaustive quantities next to them for cross-checking. Shared by the
   `predlab sample` CLI and the DEF.SAMPLE oracle experiment. *)

(* Meaningful coverage while an exhaustive sweep of the registry stays
   cheap. *)
let input_cap = 24

type exhaustive = {
  x_pr : Prelude.Ratio.t;
  x_sipr : Prelude.Ratio.t;
  x_iipr : Prelude.Ratio.t;
  x_bcet : int;
  x_wcet : int;
  x_mean : float;
}

type row = {
  workload : string;
  n_states : int;
  n_inputs : int;
  sampled : Sampling.Sampler.result;
  exhaustive : exhaustive option;
}

let analyze ?jobs ?(spec = Sampling.Sampler.default) ?(cross_check = false)
    (name, make) =
  let w : Isa.Workload.t = make () in
  let program, _ = Isa.Workload.program w in
  let states = Harness.inorder_states program w in
  let inputs = Prelude.Listx.take input_cap w.Isa.Workload.inputs in
  (* One fast-path timer for both passes: the sampled cells and the
     exhaustive sweep share the engine's compiled traces and memo table
     (their agreement is FIG1.FAST's guarantee). *)
  let timer = Harness.inorder_timer program in
  let sampled = Quantify.sample ?jobs ~spec ~states ~inputs timer in
  let exhaustive =
    if not cross_check then None
    else begin
      let m = Quantify.evaluate_timer ?jobs ~states ~inputs timer in
      let times = Quantify.times m in
      let total = List.fold_left ( + ) 0 times in
      Some
        { x_pr = Quantify.pr m;
          x_sipr = Quantify.sipr m;
          x_iipr = Quantify.iipr m;
          x_bcet = Quantify.bcet m;
          x_wcet = Quantify.wcet m;
          x_mean = float_of_int total /. float_of_int (List.length times) }
    end
  in
  { workload = name; n_states = List.length states;
    n_inputs = List.length inputs; sampled; exhaustive }

(* Containment verdicts (vacuously true without a cross-check). *)

let with_exhaustive row f =
  match row.exhaustive with None -> true | Some x -> f x

let pr_contained row =
  with_exhaustive row (fun x ->
      Sampling.Estimate.contains row.sampled.Sampling.Sampler.pr
        (Prelude.Ratio.to_float x.x_pr))

let sipr_contained row =
  with_exhaustive row (fun x ->
      Sampling.Estimate.contains row.sampled.Sampling.Sampler.sipr
        (Prelude.Ratio.to_float x.x_sipr))

let iipr_contained row =
  with_exhaustive row (fun x ->
      Sampling.Estimate.contains row.sampled.Sampling.Sampler.iipr
        (Prelude.Ratio.to_float x.x_iipr))

let mean_contained row =
  with_exhaustive row (fun x ->
      Sampling.Estimate.contains row.sampled.Sampling.Sampler.mean x.x_mean)

(* The pWCET-style tails are deliberately conservative extrapolations:
   on a finite Q x I space the exceedance quantile overshoots the true
   extreme, so the meaningful cross-check is bracketing from outside —
   lower tail at or below exhaustive BCET, upper tail at or above
   exhaustive WCET — not CI containment. *)
let tails_bracket row =
  with_exhaustive row (fun x ->
      row.sampled.Sampling.Sampler.bcet_tail.Sampling.Estimate.value
      <= float_of_int x.x_bcet
      && float_of_int x.x_wcet
         <= row.sampled.Sampling.Sampler.wcet_tail.Sampling.Estimate.value)

let all_contained row =
  pr_contained row && sipr_contained row && iipr_contained row
  && mean_contained row && tails_bracket row

let exhaustive_to_json x =
  Prelude.Json.Obj
    [ ("pr", Prelude.Json.Float (Prelude.Ratio.to_float x.x_pr));
      ("sipr", Prelude.Json.Float (Prelude.Ratio.to_float x.x_sipr));
      ("iipr", Prelude.Json.Float (Prelude.Ratio.to_float x.x_iipr));
      ("bcet", Prelude.Json.Int x.x_bcet);
      ("wcet", Prelude.Json.Int x.x_wcet);
      ("mean", Prelude.Json.Float x.x_mean) ]

let row_to_json row =
  Prelude.Json.Obj
    (( "workload", Prelude.Json.String row.workload )
     :: Sampling.Sampler.fields row.sampled
     @
     match row.exhaustive with
     | None -> []
     | Some x ->
       [ ("exhaustive", exhaustive_to_json x);
         ("contained",
          Prelude.Json.Obj
            [ ("pr", Prelude.Json.Bool (pr_contained row));
              ("sipr", Prelude.Json.Bool (sipr_contained row));
              ("iipr", Prelude.Json.Bool (iipr_contained row));
              ("mean", Prelude.Json.Bool (mean_contained row));
              ("tails", Prelude.Json.Bool (tails_bracket row)) ]) ])

(* The machine-readable `predlab sample` document: the report-schema
   family extended with sampled estimates (estimate/ci_lo/ci_hi/
   n_samples/seed per quantity). *)
let report_to_json ~jobs rows =
  Prelude.Json.Obj
    [ ("schema", Prelude.Json.String "predlab/sample");
      ("version", Prelude.Json.Int 1);
      ("jobs", Prelude.Json.Int jobs);
      ("workloads", Prelude.Json.List (List.map row_to_json rows)) ]

let render row =
  let buf = Buffer.create 512 in
  let s = row.sampled in
  Buffer.add_string buf
    (Printf.sprintf
       "%s: %d states x %d inputs, %d sampled evals (seed %d, %.0f%% CIs)\n"
       row.workload row.n_states row.n_inputs s.Sampling.Sampler.evals
       s.Sampling.Sampler.spec.Sampling.Sampler.seed
       (100. *. s.Sampling.Sampler.spec.Sampling.Sampler.confidence));
  let line ?(verdict = ("inside CI", "OUTSIDE CI")) label e exact ok =
    Buffer.add_string buf
      (Printf.sprintf "  %-10s %-28s%s\n" label
         (Sampling.Estimate.to_string e)
         (match exact with
          | None -> ""
          | Some v ->
            Printf.sprintf "  exhaustive %.4f (%s)" v
              (if ok then fst verdict else snd verdict)))
  in
  let tail_verdict = ("bracketed", "NOT BRACKETED") in
  let x f = Option.map f row.exhaustive in
  line "Pr" s.Sampling.Sampler.pr
    (x (fun e -> Prelude.Ratio.to_float e.x_pr)) (pr_contained row);
  line "SIPr" s.Sampling.Sampler.sipr
    (x (fun e -> Prelude.Ratio.to_float e.x_sipr)) (sipr_contained row);
  line "IIPr" s.Sampling.Sampler.iipr
    (x (fun e -> Prelude.Ratio.to_float e.x_iipr)) (iipr_contained row);
  line "mean T" s.Sampling.Sampler.mean (x (fun e -> e.x_mean))
    (mean_contained row);
  line ~verdict:tail_verdict "BCET tail" s.Sampling.Sampler.bcet_tail
    (x (fun e -> float_of_int e.x_bcet)) (tails_bracket row);
  line ~verdict:tail_verdict "WCET tail" s.Sampling.Sampler.wcet_tail
    (x (fun e -> float_of_int e.x_wcet)) (tails_bracket row);
  Buffer.contents buf
