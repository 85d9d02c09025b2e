type ci = {
  lo : float;
  hi : float;
  confidence : float;
}

type method_ =
  | Normal
  | Bootstrap
  | Degenerate

(* The wire names. *)
let method_string = function
  | Normal -> "normal"
  | Bootstrap -> "bootstrap"
  | Degenerate -> "degenerate"

type t = {
  value : float;
  ci : ci;
  n : int;
  meth : method_;
}

(* Acklam's rational approximation to the standard normal quantile
   function (inverse CDF), accurate to ~1.15e-9 over (0, 1) — more than
   enough for confidence-interval z-values, with no dependency beyond the
   float primitives. *)
let normal_quantile p =
  if Float.is_nan p || p <= 0. || p >= 1. then
    invalid_arg "Estimate.normal_quantile: p must be within (0, 1)";
  let a =
    [| -3.969683028665376e+01; 2.209460984245205e+02;
       -2.759285104469687e+02; 1.383577518672690e+02;
       -3.066479806614716e+01; 2.506628277459239e+00 |]
  and b =
    [| -5.447609879822406e+01; 1.615858368580409e+02;
       -1.556989798598866e+02; 6.680131188771972e+01;
       -1.328068155288572e+01 |]
  and c =
    [| -7.784894002430293e-03; -3.223964580411365e-01;
       -2.400758277161838e+00; -2.549732539343734e+00;
       4.374664141464968e+00; 2.938163982698783e+00 |]
  and d =
    [| 7.784695709041462e-03; 3.224671290700398e-01;
       2.445134137142996e+00; 3.754408661907416e+00 |]
  in
  let p_low = 0.02425 in
  if p < p_low then
    let q = sqrt (-2. *. log p) in
    (((((c.(0) *. q +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4))
       *. q +. c.(5))
    /. ((((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.)
  else if p <= 1. -. p_low then
    let q = p -. 0.5 in
    let r = q *. q in
    (((((a.(0) *. r +. a.(1)) *. r +. a.(2)) *. r +. a.(3)) *. r +. a.(4))
       *. r +. a.(5))
    *. q
    /. (((((b.(0) *. r +. b.(1)) *. r +. b.(2)) *. r +. b.(3)) *. r +. b.(4))
          *. r +. 1.)
  else
    let q = sqrt (-2. *. log (1. -. p)) in
    -.((((((c.(0) *. q +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4))
          *. q +. c.(5))
       /. ((((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.))

(* Two-sided z-value: [normal_quantile ((1 + c) / 2)]; raises
   [Invalid_argument] unless [0 < c < 1]. *)
let z_of_confidence confidence =
  if
    Float.is_nan confidence || confidence <= 0. || confidence >= 1.
  then invalid_arg "Estimate.z_of_confidence: confidence must be in (0, 1)";
  normal_quantile ((1. +. confidence) /. 2.)

let degenerate ~confidence ~n value =
  { value; ci = { lo = value; hi = value; confidence }; n;
    meth = Degenerate }

(* Normal-approximation CI for a sample mean: value +/- z * sd / sqrt n
   (CLT; sample standard deviation is already Bessel-corrected). *)
let normal_mean ~confidence samples =
  ignore (z_of_confidence confidence);
  let s = Prelude.Stats.summarize samples in
  if s.Prelude.Stats.count < 2 then
    degenerate ~confidence ~n:s.Prelude.Stats.count s.Prelude.Stats.mean
  else
    let z = z_of_confidence confidence in
    let half =
      z *. s.Prelude.Stats.stddev /. sqrt (float_of_int s.Prelude.Stats.count)
    in
    { value = s.Prelude.Stats.mean;
      ci =
        { lo = s.Prelude.Stats.mean -. half;
          hi = s.Prelude.Stats.mean +. half;
          confidence };
      n = s.Prelude.Stats.count;
      meth = Normal }

(* Basic (reflected) bootstrap interval from precomputed replicate
   statistics: [2v - q_hi, 2v - q_lo]. The percentile interval is wrong
   for the extreme-value statistics this library estimates (every
   resampled min >= the sample min and max <= the sample max, so all
   replicates of a min/max ratio sit on one side of the point estimate);
   reflecting the replicate spread about the estimate points the interval
   toward the unseen tail instead. The interval is then widened to
   include the point estimate itself, so a degenerate replicate spread
   can never exclude the value it was computed from. *)
let of_replicates ~confidence ~n ~value replicates =
  ignore (z_of_confidence confidence);
  if Array.length replicates = 0 then degenerate ~confidence ~n value
  else begin
    let sorted = Array.copy replicates in
    Array.sort Float.compare sorted;
    let alpha = (1. -. confidence) /. 2. in
    let q_lo = Prelude.Stats.quantile_sorted sorted alpha in
    let q_hi = Prelude.Stats.quantile_sorted sorted (1. -. alpha) in
    let lo = Float.min ((2. *. value) -. q_hi) value in
    let hi = Float.max ((2. *. value) -. q_lo) value in
    { value; ci = { lo; hi; confidence }; n; meth = Bootstrap }
  end

let bootstrap ~rng ~resamples ~confidence ~stat samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Estimate.bootstrap: empty sample array";
  if resamples < 0 then
    invalid_arg "Estimate.bootstrap: resamples must be >= 0";
  let value = stat samples in
  let replicates =
    Array.init resamples (fun _ ->
        stat (Array.init n (fun _ -> samples.(Prelude.Rng.int rng n))))
  in
  of_replicates ~confidence ~n ~value replicates

(* Containment with a relative epsilon: CI endpoints are floats computed
   from exact integer data, so an exhaustive value that IS the endpoint
   must not fall out on the last ulp. *)
let contains e x =
  let eps = 1e-9 *. Float.max 1. (Float.abs x) in
  e.ci.lo -. eps <= x && x <= e.ci.hi +. eps

let float_json f =
  if Float.is_finite f then Prelude.Json.Float f else Prelude.Json.Null

let to_json e =
  Prelude.Json.Obj
    [ ("estimate", float_json e.value);
      ("ci_lo", float_json e.ci.lo);
      ("ci_hi", float_json e.ci.hi);
      ("confidence", float_json e.ci.confidence);
      ("n_samples", Prelude.Json.Int e.n);
      ("method", Prelude.Json.String (method_string e.meth)) ]

let to_string e =
  Printf.sprintf "%.4f [%.4f, %.4f]" e.value e.ci.lo e.ci.hi
