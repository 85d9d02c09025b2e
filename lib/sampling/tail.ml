type side =
  | Upper
  | Lower

(* One extrapolated tail quantile over a resample of [oriented], an
   ascending-sorted float array (upper side; the lower side enters
   negated), given as [counts.(j)], the number of times index [j] was
   drawn. The sorted resample is [oriented.(j)] repeated [counts.(j)]
   times in index order; the point estimate is the resample whose every
   count is 1. Peaks-over-threshold with an exponential excess model — the
   simplest pWCET-style estimator: the threshold u is the
   (1 - tail_fraction) empirical quantile, exceedances over u are modelled
   Exp(mean excess m), and the quantile exceeded with probability p
   extrapolates to u + m * ln(k / (n * p)) where k is the exceedance
   count. Degenerate tails (no strict exceedances — e.g. a constant
   distribution) and extrapolations that would fall inside the observed
   support clamp to the observed maximum: the estimator never claims a
   worst case better than one it has already seen.

   Nothing is laid out: one prefix walk over the counts finds the two
   order statistics u interpolates between, the top drawn index and the
   excesses. u is [Stats.quantile_sorted]'s type-7 interpolation between
   positions [lo] and [hi] of the resample, computed with the same float
   operations. Every draw at a position up to [lo] is at most u, so the
   excesses start at the index holding position [lo]; each is added as
   many times as its index was drawn, in ascending index order, which is
   the order a sorted resample presents them in. Plain loops keep the
   running sum an unboxed local. *)
let extrapolate ~tail_fraction ~exceed_p oriented counts =
  let n = Array.length oriented in
  let h = (1. -. tail_fraction) *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor h) in
  let hi = Stdlib.min (n - 1) (lo + 1) in
  (* [j] walks the indices; [seen] counts the draws at indices [<= j]. *)
  let j = ref 0 and seen = ref counts.(0) in
  while !seen <= lo do
    incr j;
    seen := !seen + counts.(!j)
  done;
  let j_lo = !j in
  while !seen <= hi do
    incr j;
    seen := !seen + counts.(!j)
  done;
  let x_lo = oriented.(j_lo) in
  let u =
    x_lo +. ((h -. float_of_int lo) *. (oriented.(!j) -. x_lo))
  in
  let k = ref 0 and excess_sum = ref 0. and top = ref j_lo in
  for j = j_lo to n - 1 do
    let c = counts.(j) in
    if c > 0 then begin
      top := j;
      let x = oriented.(j) in
      if x > u then begin
        k := !k + c;
        for _ = 1 to c do
          excess_sum := !excess_sum +. (x -. u)
        done
      end
    end
  done;
  let observed_max = oriented.(!top) in
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
  let stat counts = extrapolate ~tail_fraction ~exceed_p oriented counts in
  (* A resample is the count of each index's draws. Entries of [oriented]
     that compare equal are the same float bit for bit (no NaN, and every
     zero carries the side's sign), so [oriented.(j)] repeated [counts.(j)]
     times in index order is exactly what sorting the drawn values gives.
     One index buffer and one count buffer serve the point estimate and
     every resample. *)
  let idx = Array.make n 0 and counts = Array.make n 1 in
  let value = stat counts in
  let replicates =
    Array.init resamples (fun _ ->
        Prelude.Rng.fill rng n idx;
        Array.fill counts 0 n 0;
        for k = 0 to n - 1 do
          let j = idx.(k) in
          counts.(j) <- counts.(j) + 1
        done;
        stat counts)
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
