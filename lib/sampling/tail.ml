type side =
  | Upper
  | Lower

(* One extrapolated tail quantile over an ascending-sorted float array
   (upper side; the lower side enters negated). Peaks-over-threshold with
   an exponential excess model — the simplest pWCET-style estimator: the
   threshold u is the (1 - tail_fraction) empirical quantile, exceedances
   over u are modelled Exp(mean excess m), and the quantile exceeded with
   probability p extrapolates to u + m * ln(k / (n * p)) where k is the
   exceedance count. Degenerate tails (no strict exceedances — e.g. a
   constant distribution) and extrapolations that would fall inside the
   observed support clamp to the observed maximum: the estimator never
   claims a worst case better than one it has already seen. *)
let extrapolate ~tail_fraction ~exceed_p sorted =
  let n = Array.length sorted in
  let observed_max = sorted.(n - 1) in
  let u = Prelude.Stats.quantile_sorted sorted (1. -. tail_fraction) in
  (* A plain loop rather than [Array.iter]: the running sum stays an
     unboxed local instead of a boxed float captured by a closure. *)
  let k = ref 0 and excess_sum = ref 0. in
  for j = 0 to n - 1 do
    let x = sorted.(j) in
    if x > u then begin
      incr k;
      excess_sum := !excess_sum +. (x -. u)
    end
  done;
  if !k = 0 then observed_max
  else
    let m = !excess_sum /. float_of_int !k in
    let q =
      u +. (m *. log (float_of_int !k /. (float_of_int n *. exceed_p)))
    in
    Float.max q observed_max

let validate ~tail_fraction ~exceed_p =
  if
    Float.is_nan tail_fraction || tail_fraction <= 0. || tail_fraction >= 1.
  then invalid_arg "Tail.estimate: tail_fraction must be in (0, 1)";
  if Float.is_nan exceed_p || exceed_p <= 0. || exceed_p >= 1. then
    invalid_arg "Tail.estimate: exceed_p must be in (0, 1)"

let estimate ~rng ~resamples ~confidence ~tail_fraction ~exceed_p side
    samples =
  validate ~tail_fraction ~exceed_p;
  let n = Array.length samples in
  if n = 0 then invalid_arg "Tail.estimate: empty sample array";
  if resamples < 0 then invalid_arg "Tail.estimate: resamples must be >= 0";
  let sign = match side with Upper -> 1. | Lower -> -1. in
  let oriented = Array.map (fun t -> sign *. float_of_int t) samples in
  Array.sort Float.compare oriented;
  let stat sorted = extrapolate ~tail_fraction ~exceed_p sorted in
  let value = stat oriented in
  (* [oriented] is sorted, so a sorted resample is a counting sort of the
     drawn indices: count each index's draws, then lay the samples out in
     index order. Entries of [oriented] that compare equal are the same
     float bit for bit (no NaN, and every zero carries the side's sign),
     so the result is exactly what sorting the drawn values gives. One
     count buffer and one float buffer serve every resample. *)
  let counts = Array.make n 0 in
  let re = Array.make n 0. in
  let replicates =
    Array.init resamples (fun _ ->
        Array.fill counts 0 n 0;
        for _ = 1 to n do
          let j = Prelude.Rng.int rng n in
          counts.(j) <- counts.(j) + 1
        done;
        let pos = ref 0 in
        for j = 0 to n - 1 do
          let x = oriented.(j) in
          for _ = 1 to counts.(j) do
            re.(!pos) <- x;
            incr pos
          done
        done;
        stat re)
  in
  let e = Estimate.of_replicates ~confidence ~n ~value replicates in
  match side with
  | Upper -> e
  | Lower ->
    (* Undo the negation: the oriented upper tail of -t is the lower tail
       of t, with the interval endpoints swapped. *)
    { e with
      value = -.e.Estimate.value;
      ci =
        { Estimate.lo = -.e.Estimate.ci.Estimate.hi;
          hi = -.e.Estimate.ci.Estimate.lo;
          confidence = e.Estimate.ci.Estimate.confidence } }
