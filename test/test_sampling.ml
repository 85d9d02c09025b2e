(* Tests for the sampling layer and the Rng.int bias fix: chi-square
   uniformity (the old modulo reduction must fail it, the rejection
   sampler must pass), sequence compatibility for small bounds, keyed
   substreams and known-answer streams, bulk draws against single draws,
   histogram edge cases, quantiles, CI constructions, tail extrapolation,
   allocation-free resampling against the materialising reference, the
   sampler's determinism/containment contract and its single fan-out, and
   `predlab sample --format json` pinned by digest. *)

(* --- The old biased Rng.int, reconstructed locally ----------------------- *)

(* Same splitmix64 core as Prelude.Rng, so the two reductions below draw
   from the identical underlying stream and differ only in how a raw draw
   becomes an int in [0, bound). *)
let splitmix_next state =
  let open Int64 in
  let s = add !state 0x9E3779B97F4A7C15L in
  state := s;
  let z = mul (logxor s (shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let biased_int state bound =
  let v = Int64.logand (splitmix_next state) Int64.max_int in
  Int64.to_int (Int64.rem v (Int64.of_int bound))

(* Bound 3 * 2^60: 2^63 = 2 * bound + 2 * 2^60, so under modulo reduction
   the first two thirds of the range are hit 3/8 of the time each and the
   last third only 2/8 — a 1.5x skew, flagrant enough for a chi-square
   over three buckets to reject with a deterministic seed. *)
let skewed_bound = 3 * (1 lsl 60)

let chi_square draws =
  let buckets = Array.make 3 0 in
  List.iter
    (fun d ->
       let b = d / (1 lsl 60) in
       buckets.(b) <- buckets.(b) + 1)
    draws;
  let n = float_of_int (List.length draws) in
  let expected = n /. 3. in
  Array.fold_left
    (fun acc o ->
       let d = float_of_int o -. expected in
       acc +. (d *. d /. expected))
    0. buckets

(* 99.9th percentile of chi-square with 2 degrees of freedom. *)
let critical = 13.816

let test_chi_square_rejects_biased () =
  let state = ref 42L in
  let draws = List.init 3000 (fun _ -> biased_int state skewed_bound) in
  let stat = chi_square draws in
  Alcotest.(check bool)
    (Printf.sprintf "modulo reduction fails uniformity (chi2 %.1f > %.3f)"
       stat critical)
    true (stat > critical)

let test_chi_square_accepts_fixed () =
  let rng = Prelude.Rng.make 42 in
  let draws = List.init 3000 (fun _ -> Prelude.Rng.int rng skewed_bound) in
  let stat = chi_square draws in
  Alcotest.(check bool)
    (Printf.sprintf "rejection sampling passes uniformity (chi2 %.1f < %.3f)"
       stat critical)
    true (stat < critical)

(* For small bounds the rejection zone is never hit, so the fixed Rng.int
   emits the exact sequence the old one did — the reason no existing
   seeded test needed re-pinning. *)
let test_small_bound_sequences_unchanged () =
  let rng = Prelude.Rng.make 7 in
  let state = ref 7L in
  for k = 1 to 200 do
    Alcotest.(check int)
      (Printf.sprintf "draw %d" k)
      (biased_int state 1000) (Prelude.Rng.int rng 1000)
  done

let test_int_rejects_nonpositive_bound () =
  let rng = Prelude.Rng.make 1 in
  Alcotest.check_raises "bound 0"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
        ignore (Prelude.Rng.int rng 0));
  Alcotest.check_raises "bound -3"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
        ignore (Prelude.Rng.int rng (-3)))

(* --- Known answers: every stream against the local splitmix64 ------------ *)

let golden = 0x9E3779B97F4A7C15L

(* The published splitmix64 test vector pins the reference itself. *)
let test_splitmix_reference_vector () =
  Alcotest.(check int64) "first output from state 0" 0xE220A8397B1DCDAFL
    (splitmix_next (ref 0L))

(* Raw words through the public API: [float t bound] scales the top 53
   bits of one step, and [int t 2^61] is its low 61 bits (a power-of-two
   bound never rejects). Both compared bit for bit. *)
let ref_float state bound =
  let mantissa =
    Int64.to_int (Int64.shift_right_logical (splitmix_next state) 11)
  in
  bound *. (float_of_int mantissa /. 9007199254740992.0)

let low61 = 1 lsl 61

let ref_low61 state =
  Int64.to_int (Int64.logand (splitmix_next state) (Int64.of_int (low61 - 1)))

let check_float what expected actual =
  Alcotest.(check int64) what (Int64.bits_of_float expected)
    (Int64.bits_of_float actual)

let test_float_known_answers () =
  List.iter
    (fun seed ->
       let rng = Prelude.Rng.make seed and state = ref (Int64.of_int seed) in
       for k = 1 to 100 do
         let bound = List.nth [ 1.; 3.5; 1e6 ] (k mod 3) in
         check_float
           (Printf.sprintf "seed %d draw %d" seed k)
           (ref_float state bound)
           (Prelude.Rng.float rng bound)
       done)
    [ 0; 1; 0x5a3d; -7 ]

let test_split_known_answers () =
  let parent = Prelude.Rng.make 11 and pstate = ref 11L in
  Alcotest.(check int) "parent before the split" (ref_low61 pstate)
    (Prelude.Rng.int parent low61);
  let child = Prelude.Rng.split parent in
  let cstate = ref (splitmix_next pstate) in
  for k = 1 to 20 do
    check_float
      (Printf.sprintf "child draw %d" k)
      (ref_float cstate 1.) (Prelude.Rng.float child 1.);
    Alcotest.(check int)
      (Printf.sprintf "parent draw %d" k)
      (ref_low61 pstate)
      (Prelude.Rng.int parent low61)
  done

let test_split_key_known_answers () =
  let parent = Prelude.Rng.make 0x5a3d and pstate = ref 0x5a3dL in
  for _ = 1 to 3 do
    Alcotest.(check int) "parent before" (ref_low61 pstate)
      (Prelude.Rng.int parent low61)
  done;
  List.iter
    (fun key ->
       let child = Prelude.Rng.split_key parent key in
       let probe = Int64.add !pstate (Int64.mul golden (Int64.of_int key)) in
       let cstate = ref (splitmix_next (ref probe)) in
       for k = 1 to 20 do
         Alcotest.(check int)
           (Printf.sprintf "key %d draw %d" key k)
           (ref_low61 cstate)
           (Prelude.Rng.int child low61)
       done)
    [ 0; 1; 2; 3; 7; 8; 37; 1000; -5; max_int; min_int ];
  Alcotest.(check int) "parent after, not advanced" (ref_low61 pstate)
    (Prelude.Rng.int parent low61)

(* [fill t bound dst] must write what [Array.length dst] calls of [int t
   bound] return and leave [t] where they leave it; the next raw words
   (a power-of-two bound never rejects) pin the state. The two largest
   bounds reject about a quarter and, just above 2^63 / 3, about a third
   of raw draws. *)
let test_fill_matches_int () =
  let raw rng = List.init 8 (fun _ -> Prelude.Rng.int rng low61) in
  List.iter
    (fun bound ->
       List.iter
         (fun len ->
            let what = Printf.sprintf "bound %d, %d draws" bound len in
            let seed = bound lxor len in
            let filled = Prelude.Rng.make seed
            and called = Prelude.Rng.make seed in
            let dst = Array.make len (-1) in
            Prelude.Rng.fill filled bound dst;
            let expected =
              Array.init len (fun _ -> Prelude.Rng.int called bound)
            in
            Alcotest.(check (array int)) what expected dst;
            Alcotest.(check (list int)) (what ^ ": state after") (raw called)
              (raw filled))
         [ 0; 1; 7; 384; 1000 ])
    [ 1; 6; 32; 384; (3 * (1 lsl 60)) - 11; (2 * (max_int / 3)) + 2 ];
  let rng = Prelude.Rng.make 3 in
  Prelude.Rng.fill rng 0 [||];
  Alcotest.(check (list int)) "an empty dst leaves the state unchanged"
    (raw (Prelude.Rng.make 3)) (raw rng);
  List.iter
    (fun bound ->
       Alcotest.check_raises
         (Printf.sprintf "bound %d" bound)
         (Invalid_argument "Rng.fill: bound must be positive") (fun () ->
             Prelude.Rng.fill rng bound (Array.make 3 0)))
    [ 0; -3 ]

(* --- Keyed substreams ---------------------------------------------------- *)

let stream rng n = List.init n (fun _ -> Prelude.Rng.int rng 1_000_000)

let test_split_key_reproducible () =
  let a = Prelude.Rng.split_key (Prelude.Rng.make 5) 37 in
  let b = Prelude.Rng.split_key (Prelude.Rng.make 5) 37 in
  Alcotest.(check (list int)) "equal (state, key) gives equal streams"
    (stream a 50) (stream b 50)

let test_split_key_distinct_keys () =
  let parent = Prelude.Rng.make 5 in
  let streams =
    List.init 16 (fun k -> stream (Prelude.Rng.split_key parent k) 20)
  in
  let distinct = Prelude.Listx.uniq Stdlib.compare streams in
  Alcotest.(check int) "16 keys give 16 distinct streams" 16
    (List.length distinct)

let test_split_key_does_not_advance () =
  let a = Prelude.Rng.make 9 and b = Prelude.Rng.make 9 in
  ignore (Prelude.Rng.split_key a 123);
  Alcotest.(check (list int)) "parent stream unaffected by split_key"
    (stream b 20) (stream a 20)

(* --- Histogram edge cases ------------------------------------------------ *)

let test_render_never_hides_nonzero_bin () =
  (* 1000 samples in the first bin, 1 in the last: proportional scaling
     would truncate the single-sample bar to zero characters. *)
  let samples = List.init 1000 (fun _ -> 0) @ [ 100 ] in
  let h = Prelude.Histogram.of_samples ~bins:2 samples in
  let rendered = Prelude.Histogram.render h in
  let bars =
    String.split_on_char '\n' rendered
    |> List.filter (fun line -> String.contains line '#')
  in
  Alcotest.(check int) "both occupied bins draw a bar" 2 (List.length bars)

let test_of_samples_span_overflow_raises () =
  let check name samples =
    match Prelude.Histogram.of_samples ~bins:4 samples with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  (* Both spans overflow [hi - lo + 1]; they used to surface as
     Division_by_zero out of the binning arithmetic. *)
  check "min_int..max_int" [ min_int; max_int ];
  check "0..max_int" [ 0; max_int ]

let test_of_samples_ordinary_span_still_works () =
  let h = Prelude.Histogram.of_samples ~bins:3 [ 1; 2; 3; 4; 5; 6 ] in
  Alcotest.(check int) "total" 6 (Prelude.Histogram.total h)

(* --- Quantiles ----------------------------------------------------------- *)

let test_quantile_type7 () =
  let samples = [ 4.; 1.; 3.; 2. ] in
  Alcotest.(check (float 1e-12)) "p=0 is the min" 1.
    (Prelude.Stats.quantile samples 0.);
  Alcotest.(check (float 1e-12)) "p=1 is the max" 4.
    (Prelude.Stats.quantile samples 1.);
  Alcotest.(check (float 1e-12)) "median interpolates" 2.5
    (Prelude.Stats.quantile samples 0.5);
  Alcotest.(check (float 1e-12)) "p=0.25 interpolates" 1.75
    (Prelude.Stats.quantile samples 0.25)

let test_quantile_validation () =
  (match Prelude.Stats.quantile [] 0.5 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "empty list: expected Invalid_argument");
  match Prelude.Stats.quantile [ 1. ] 1.5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "p outside [0, 1]: expected Invalid_argument"

(* --- Estimates ----------------------------------------------------------- *)

let test_normal_quantile () =
  (* Standard values to 3-4 decimals (Acklam's approximation is ~1e-9). *)
  Alcotest.(check (float 1e-4)) "z(0.975)" 1.9600
    (Sampling.Estimate.normal_quantile 0.975);
  Alcotest.(check (float 1e-4)) "z(0.995)" 2.5758
    (Sampling.Estimate.normal_quantile 0.995);
  Alcotest.(check (float 1e-9)) "z(0.5)" 0.
    (Sampling.Estimate.normal_quantile 0.5)

let test_normal_mean_ci () =
  let e = Sampling.Estimate.normal_mean ~confidence:0.95 [ 1.; 2.; 3. ] in
  Alcotest.(check (float 1e-9)) "point estimate" 2. e.Sampling.Estimate.value;
  Alcotest.(check bool) "CI contains the mean" true
    (Sampling.Estimate.contains e 2.);
  Alcotest.(check bool) "CI has width" true
    (e.Sampling.Estimate.ci.Sampling.Estimate.hi
     > e.Sampling.Estimate.ci.Sampling.Estimate.lo);
  let single = Sampling.Estimate.normal_mean ~confidence:0.95 [ 5. ] in
  Alcotest.(check bool) "single sample degenerates" true
    (single.Sampling.Estimate.meth = Sampling.Estimate.Degenerate)

let test_bootstrap_deterministic_and_contains_value () =
  let samples = Array.init 100 (fun k -> (k * 13 mod 31) + 1) in
  let stat a =
    float_of_int (Array.fold_left Stdlib.min max_int a)
    /. float_of_int (Array.fold_left Stdlib.max 0 a)
  in
  let run () =
    Sampling.Estimate.bootstrap ~rng:(Prelude.Rng.make 3) ~resamples:200
      ~confidence:0.99 ~stat samples
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "equal rng seeds give equal intervals" true (a = b);
  Alcotest.(check bool) "interval contains its own point estimate" true
    (Sampling.Estimate.contains a a.Sampling.Estimate.value)

let test_contains_epsilon () =
  let e = Sampling.Estimate.degenerate ~confidence:0.99 ~n:1 0.3 in
  Alcotest.(check bool) "exact endpoint hit" true
    (Sampling.Estimate.contains e 0.3);
  Alcotest.(check bool) "clearly outside" false
    (Sampling.Estimate.contains e 0.4)

(* --- Tail extrapolation -------------------------------------------------- *)

let tail_samples = Array.init 200 (fun k -> 100 + (k * 7 mod 53))

let test_tail_upper_bounds_observed_max () =
  let e =
    Sampling.Tail.estimate ~rng:(Prelude.Rng.make 4) ~resamples:100
      ~confidence:0.99 ~tail_fraction:0.25 ~exceed_p:0.001
      Sampling.Tail.Upper tail_samples
  in
  let observed_max =
    float_of_int (Array.fold_left Stdlib.max 0 tail_samples)
  in
  Alcotest.(check bool) "upper tail >= observed max" true
    (e.Sampling.Estimate.value >= observed_max)

let test_tail_lower_bounds_observed_min () =
  let e =
    Sampling.Tail.estimate ~rng:(Prelude.Rng.make 4) ~resamples:100
      ~confidence:0.99 ~tail_fraction:0.25 ~exceed_p:0.001
      Sampling.Tail.Lower tail_samples
  in
  let observed_min =
    float_of_int (Array.fold_left Stdlib.min max_int tail_samples)
  in
  Alcotest.(check bool) "lower tail <= observed min" true
    (e.Sampling.Estimate.value <= observed_min)

let test_tail_constant_samples_degenerate () =
  let e =
    Sampling.Tail.estimate ~rng:(Prelude.Rng.make 4) ~resamples:100
      ~confidence:0.99 ~tail_fraction:0.25 ~exceed_p:0.001
      Sampling.Tail.Upper (Array.make 50 7)
  in
  Alcotest.(check (float 1e-9)) "collapses to the constant" 7.
    e.Sampling.Estimate.value

let test_tail_validation () =
  match Sampling.Tail.validate ~tail_fraction:0. ~exceed_p:0.001 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "tail_fraction 0: expected Invalid_argument"

(* --- Allocation-free resampling vs the materialising reference ----------- *)

(* The resamplers as they were before resampling went allocation-free: every
   resample a fresh array, the tail's sorted with [Float.compare]. The
   library must agree with them bit for bit. *)
let ref_extremes_ratio times =
  let mn = Array.fold_left Stdlib.min max_int times in
  let mx = Array.fold_left Stdlib.max 0 times in
  float_of_int mn /. float_of_int mx

let ref_ratio_estimate ~rng ~resamples ~confidence times =
  Sampling.Estimate.bootstrap ~rng ~resamples ~confidence
    ~stat:ref_extremes_ratio times

let ref_stratified_min_ratio strata =
  Array.fold_left
    (fun acc stratum -> Float.min acc (ref_extremes_ratio stratum))
    1. strata

let ref_stratified_estimate ~rng ~resamples ~confidence strata =
  let value = ref_stratified_min_ratio strata in
  let replicates =
    Array.init resamples (fun _ ->
        ref_stratified_min_ratio
          (Array.map
             (fun stratum ->
                let n = Array.length stratum in
                Array.init n (fun _ -> stratum.(Prelude.Rng.int rng n)))
             strata))
  in
  let n = Array.fold_left (fun acc s -> acc + Array.length s) 0 strata in
  Sampling.Estimate.of_replicates ~confidence ~n ~value replicates

let ref_extrapolate ~tail_fraction ~exceed_p sorted =
  let n = Array.length sorted in
  let observed_max = sorted.(n - 1) in
  let u = Prelude.Stats.quantile_sorted sorted (1. -. tail_fraction) in
  let k = ref 0 and excess_sum = ref 0. in
  Array.iter
    (fun x ->
       if x > u then begin
         incr k;
         excess_sum := !excess_sum +. (x -. u)
       end)
    sorted;
  if !k = 0 then observed_max
  else
    let m = !excess_sum /. float_of_int !k in
    let q =
      u +. (m *. log (float_of_int !k /. (float_of_int n *. exceed_p)))
    in
    Float.max q observed_max

let ref_tail_estimate ~rng ~resamples ~confidence ~tail_fraction ~exceed_p
    side samples =
  let n = Array.length samples in
  let sign = match side with Sampling.Tail.Upper -> 1. | Lower -> -1. in
  let oriented = Array.map (fun t -> sign *. float_of_int t) samples in
  Array.sort Float.compare oriented;
  let stat sorted = ref_extrapolate ~tail_fraction ~exceed_p sorted in
  let value = stat oriented in
  let replicates =
    Array.init resamples (fun _ ->
        let re = Array.init n (fun _ -> oriented.(Prelude.Rng.int rng n)) in
        Array.sort Float.compare re;
        stat re)
  in
  let e = Sampling.Estimate.of_replicates ~confidence ~n ~value replicates in
  match side with
  | Upper -> e
  | Lower ->
    { e with
      value = -.e.Sampling.Estimate.value;
      ci =
        { Sampling.Estimate.lo = -.e.Sampling.Estimate.ci.Sampling.Estimate.hi;
          hi = -.e.Sampling.Estimate.ci.Sampling.Estimate.lo;
          confidence = e.Sampling.Estimate.ci.Sampling.Estimate.confidence } }

(* An estimate as bits: [=] on the floats themselves would also equate
   0. with -0. *)
let estimate_bits (e : Sampling.Estimate.t) =
  ( Int64.bits_of_float e.value,
    Int64.bits_of_float e.ci.lo,
    Int64.bits_of_float e.ci.hi,
    Int64.bits_of_float e.ci.confidence,
    e.n,
    e.meth )

(* Positive times: mostly distinct, heavily tied, or constant; length 1
   often enough to matter. *)
let times_gen =
  QCheck.Gen.(
    let* n = frequency [ (1, return 1); (6, int_range 2 40) ] in
    frequency
      [ (3, array_size (return n) (int_range 1 1_000_000));
        (3, array_size (return n) (int_range 1 4));
        (1, map (Array.make n) (int_range 1 100)) ])

type resample_case = {
  seed : int;
  resamples : int;
  confidence : float;
  times : int array;
  strata : int array array;
  side : Sampling.Tail.side;
  tail_fraction : float;
  exceed_p : float;
}

let resample_case_gen =
  QCheck.Gen.(
    let* seed = int in
    let* resamples = int_range 0 50 in
    let* confidence = oneofl [ 0.5; 0.9; 0.99 ] in
    let* times = times_gen in
    let* strata = array_size (int_range 1 6) times_gen in
    let* side = oneofl [ Sampling.Tail.Upper; Sampling.Tail.Lower ] in
    let* tail_fraction = oneofl [ 0.05; 0.25; 0.5; 0.9 ] in
    let* exceed_p = oneofl [ 0.001; 0.1; 0.5 ] in
    return
      { seed; resamples; confidence; times; strata; side; tail_fraction;
        exceed_p })

let print_resample_case c =
  let ints a = String.concat ";" (Array.to_list (Array.map string_of_int a)) in
  Printf.sprintf
    "seed=%d resamples=%d confidence=%g side=%s tail_fraction=%g \
     exceed_p=%g times=[%s] strata=[%s]"
    c.seed c.resamples c.confidence
    (match c.side with Sampling.Tail.Upper -> "upper" | Lower -> "lower")
    c.tail_fraction c.exceed_p (ints c.times)
    (String.concat " | " (Array.to_list (Array.map ints c.strata)))

let prop_resampling_matches_reference =
  QCheck.Test.make ~count:300
    ~name:"allocation-free resampling = materialising reference (bitwise)"
    (QCheck.make ~print:print_resample_case resample_case_gen)
    (fun c ->
       let rng () = Prelude.Rng.make c.seed in
       let same what expected actual =
         if estimate_bits expected <> estimate_bits actual then
           QCheck.Test.fail_reportf "%s: reference %s, library %s" what
             (Sampling.Estimate.to_string expected)
             (Sampling.Estimate.to_string actual)
       in
       let resamples = c.resamples and confidence = c.confidence in
       same "ratio"
         (ref_ratio_estimate ~rng:(rng ()) ~resamples ~confidence c.times)
         (Sampling.Sampler.ratio_estimate ~rng:(rng ()) ~resamples
            ~confidence c.times);
       same "stratified"
         (ref_stratified_estimate ~rng:(rng ()) ~resamples ~confidence
            c.strata)
         (Sampling.Sampler.stratified_estimate ~rng:(rng ()) ~resamples
            ~confidence c.strata);
       let tail estimate =
         estimate ~rng:(rng ()) ~resamples ~confidence
           ~tail_fraction:c.tail_fraction ~exceed_p:c.exceed_p c.side c.times
       in
       same "tail" (tail ref_tail_estimate) (tail Sampling.Tail.estimate);
       true)

(* --- The sampler: determinism and containment ---------------------------- *)

let synthetic_time q i = 10 + (((q * 31) + (i * 17)) mod 13)

let small_spec =
  { Sampling.Sampler.default with
    Sampling.Sampler.n_cells = 200; per_stratum = 16; resamples = 100 }

let test_sampler_jobs_determinism () =
  let run jobs =
    Sampling.Sampler.run ~jobs ~spec:small_spec ~n_states:9 ~n_inputs:11
      ~time:synthetic_time ()
  in
  let reference = run 1 in
  List.iter
    (fun jobs ->
       Alcotest.(check bool)
         (Printf.sprintf "jobs=%d bit-identical to jobs=1" jobs)
         true
         (run jobs = reference))
    [ 2; 4; 8 ]

let test_sampler_seed_sensitivity () =
  let run seed =
    Sampling.Sampler.run ~jobs:1
      ~spec:{ small_spec with Sampling.Sampler.seed }
      ~n_states:9 ~n_inputs:11 ~time:synthetic_time ()
  in
  Alcotest.(check bool) "same seed reproduces" true (run 1 = run 1);
  Alcotest.(check bool) "shifted seed draws different cells" true
    ((run 1).Sampling.Sampler.cells <> (run 2).Sampling.Sampler.cells)

(* A run evaluates every cell in one fan-out, so at jobs 2 the cells run on
   exactly two domains, the caller and one helper; a fan-out per pass would
   bring a helper of its own for each pass. Every cell spins about 1 ms, so
   each helper takes work, and waits (at most 5 s) until two domains have
   recorded, so the second domain is certain to show. *)
let test_sampler_one_fanout () =
  let mu = Mutex.create () in
  let seen = ref [] in
  let domains () = Mutex.protect mu (fun () -> List.sort_uniq compare !seen) in
  let time q i =
    Mutex.protect mu (fun () -> seen := (Domain.self () :> int) :: !seen);
    let deadline = Prelude.Mono.now () +. 5. in
    while List.length (domains ()) < 2 && Prelude.Mono.now () < deadline do
      Domain.cpu_relax ()
    done;
    let t0 = Prelude.Mono.now () in
    while Prelude.Mono.now () -. t0 < 0.001 do
      Domain.cpu_relax ()
    done;
    1 + q + i
  in
  let spec =
    { Sampling.Sampler.default with
      Sampling.Sampler.n_cells = 4; per_stratum = 4; resamples = 0 }
  in
  ignore (Sampling.Sampler.run ~jobs:2 ~spec ~n_states:2 ~n_inputs:2 ~time ());
  let ran = domains () in
  Alcotest.(check int) "two domains evaluated the cells" 2 (List.length ran);
  Alcotest.(check bool) "the caller is one of them" true
    (List.mem (Domain.self () :> int) ran)

(* Exhaustive ground truth for a dense times matrix. *)
let exhaustive_of rows =
  let m = Predictability.Quantify.of_rows rows in
  ( Prelude.Ratio.to_float (Predictability.Quantify.pr m),
    Prelude.Ratio.to_float (Predictability.Quantify.sipr m),
    Prelude.Ratio.to_float (Predictability.Quantify.iipr m),
    Predictability.Quantify.bcet m,
    Predictability.Quantify.wcet m )

(* qcheck containment: on matrices of at most 5x5 cells, a 600-draw
   Monte-Carlo pass and 96-per-stratum stratified passes cover every cell
   except with probability ~1e-9, and with full coverage the basic
   bootstrap intervals contain the exhaustive ratios by construction —
   so the property is deterministic in practice, not flaky. The mean's
   99% normal CI genuinely misses ~1% of the time, so it is checked only
   in the fixed-seed test below, never under qcheck. *)
let matrix_case =
  QCheck.Gen.(
    let* n_states = int_range 1 5 in
    let* n_inputs = int_range 1 5 in
    let* seed = int_range 0 10_000 in
    let* rows =
      array_size (return n_states)
        (array_size (return n_inputs) (int_range 1 100))
    in
    return (n_states, n_inputs, seed, rows))

let containment_spec seed =
  { Sampling.Sampler.default with
    Sampling.Sampler.n_cells = 600; per_stratum = 96; resamples = 100; seed }

let prop_sampled_ci_contains_exhaustive =
  QCheck.Test.make ~count:60
    ~name:"sampled CIs contain the exhaustive Pr/SIPr/IIPr; tails bracket"
    (QCheck.make matrix_case)
    (fun (n_states, n_inputs, seed, rows) ->
       let pr, sipr, iipr, bcet, wcet = exhaustive_of rows in
       let r =
         Sampling.Sampler.run ~jobs:1 ~spec:(containment_spec seed) ~n_states
           ~n_inputs
           ~time:(fun q i -> rows.(q).(i))
           ()
       in
       let inside what e x =
         if not (Sampling.Estimate.contains e x) then
           QCheck.Test.fail_reportf "%s: exhaustive %.6f outside [%.6f, %.6f]"
             what x e.Sampling.Estimate.ci.Sampling.Estimate.lo
             e.Sampling.Estimate.ci.Sampling.Estimate.hi
       in
       inside "Pr" r.Sampling.Sampler.pr pr;
       inside "SIPr" r.Sampling.Sampler.sipr sipr;
       inside "IIPr" r.Sampling.Sampler.iipr iipr;
       if r.Sampling.Sampler.bcet_tail.Sampling.Estimate.value
          > float_of_int bcet
       then QCheck.Test.fail_reportf "lower tail above exhaustive BCET";
       if r.Sampling.Sampler.wcet_tail.Sampling.Estimate.value
          < float_of_int wcet
       then QCheck.Test.fail_reportf "upper tail below exhaustive WCET";
       true)

let test_fixed_seed_mean_containment () =
  let rows = Array.init 5 (fun q -> Array.init 5 (fun i -> synthetic_time q i)) in
  let total = Array.fold_left (fun a r -> Array.fold_left ( + ) a r) 0 rows in
  let mean = float_of_int total /. 25. in
  let r =
    Sampling.Sampler.run ~jobs:1 ~spec:(containment_spec 77) ~n_states:5
      ~n_inputs:5
      ~time:(fun q i -> rows.(q).(i))
      ()
  in
  Alcotest.(check bool) "exhaustive mean inside the normal CI" true
    (Sampling.Estimate.contains r.Sampling.Sampler.mean mean)

(* --- Quantify.sample wiring ---------------------------------------------- *)

let test_quantify_sample_validation () =
  let timer = Predictability.Quantify.Scalar (fun q i -> q + i + 1) in
  (match
     Predictability.Quantify.sample ~spec:small_spec ~states:[]
       ~inputs:[ 0 ] timer
   with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "empty states: expected Invalid_argument");
  match
    Predictability.Quantify.sample ~spec:small_spec ~states:[ 0 ]
      ~inputs:[ 0 ]
      (Predictability.Quantify.Scalar (fun _ _ -> 0))
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-positive time: expected Invalid_argument"

let test_quantify_sample_counts_evals () =
  let calls = ref 0 in
  let timer =
    Predictability.Quantify.Scalar
      (fun q i ->
         incr calls;
         q + i + 1)
  in
  let r =
    Predictability.Quantify.sample ~jobs:1 ~spec:small_spec
      ~states:[ 0; 1; 2 ] ~inputs:[ 0; 1; 2; 3 ] timer
  in
  Alcotest.(check int) "evals matches the spec arithmetic"
    (200 + (4 * 16) + (3 * 16))
    r.Sampling.Sampler.evals;
  Alcotest.(check int) "timer called once per eval" r.Sampling.Sampler.evals
    !calls

(* A warm sampled cell is one memo lookup. The second [sample] through one
   timer draws the cells of the first, all of them memo hits; packing the
   cache and predictor state into a key on each draw would cost about 850
   minor words a cell. *)
let warm_cell_words = 300.

let test_quantify_sample_warm_cell_words () =
  let w = Isa.Workload.find "bubble_sort" in
  let program, _ = Isa.Workload.program w in
  let states = Predictability.Harness.inorder_states program w in
  let inputs =
    Prelude.Listx.take Predictability.Sampled.input_cap w.Isa.Workload.inputs
  in
  let spec = { Sampling.Sampler.default with Sampling.Sampler.resamples = 0 } in
  let timer = Predictability.Harness.inorder_timer program in
  let sample () =
    Predictability.Quantify.sample ~jobs:1 ~spec ~states ~inputs timer
  in
  ignore (sample ());
  let before = Gc.minor_words () in
  let r = sample () in
  let per_cell =
    (Gc.minor_words () -. before) /. float_of_int r.Sampling.Sampler.evals
  in
  if per_cell >= warm_cell_words then
    Alcotest.failf "%.0f minor words per warm sampled cell (limit %.0f)"
      per_cell warm_cell_words

(* --- `predlab sample --format json`, byte for byte ------------------------ *)

(* MD5 digests of the exact text `predlab sample --format json --seed N
   --jobs 1` prints over the whole workload registry (the CLI and the
   daemon's [sample] op both render it through [Serve.Ops]). Any change to
   the RNG stream, the draw order, the bootstrap or tail arithmetic, or the
   JSON rendering moves them. *)
let pinned_sample_digests =
  [ (1, "3af9c6ab181d0fab22ca4daba6107d9b");
    (2, "9a10e16d5511b6d724c4eb3f9f9fcc5f") ]

let test_sample_json_pinned () =
  List.iter
    (fun (seed, digest) ->
       let request =
         Serve.Protocol.Sample
           { workloads = []; seed = Some seed; samples = None;
             confidence = None }
       in
       let text =
         Serve.Ops.render Serve.Ops.sample
           (Serve.Ops.sample.Serve.Ops.document ~jobs:1 ~deadline_s:None
              request)
       in
       Alcotest.(check string)
         (Printf.sprintf "seed %d digest" seed)
         digest
         (Digest.to_hex (Digest.string text)))
    pinned_sample_digests

let () =
  Alcotest.run "sampling"
    [ ("rng",
       [ Alcotest.test_case "chi-square rejects the old modulo reduction"
           `Quick test_chi_square_rejects_biased;
         Alcotest.test_case "chi-square accepts rejection sampling" `Quick
           test_chi_square_accepts_fixed;
         Alcotest.test_case "small-bound sequences unchanged" `Quick
           test_small_bound_sequences_unchanged;
         Alcotest.test_case "non-positive bound rejected" `Quick
           test_int_rejects_nonpositive_bound;
         Alcotest.test_case "splitmix64 reference vector" `Quick
           test_splitmix_reference_vector;
         Alcotest.test_case "float known answers" `Quick
           test_float_known_answers;
         Alcotest.test_case "split known answers" `Quick
           test_split_known_answers;
         Alcotest.test_case "split_key known answers" `Quick
           test_split_key_known_answers;
         Alcotest.test_case "fill = repeated int, values and state" `Quick
           test_fill_matches_int ]);
      ("split-key",
       [ Alcotest.test_case "reproducible" `Quick test_split_key_reproducible;
         Alcotest.test_case "distinct keys decorrelate" `Quick
           test_split_key_distinct_keys;
         Alcotest.test_case "does not advance the parent" `Quick
           test_split_key_does_not_advance ]);
      ("histogram",
       [ Alcotest.test_case "nonzero bins always draw a bar" `Quick
           test_render_never_hides_nonzero_bin;
         Alcotest.test_case "span overflow raises" `Quick
           test_of_samples_span_overflow_raises;
         Alcotest.test_case "ordinary spans still bin" `Quick
           test_of_samples_ordinary_span_still_works ]);
      ("quantile",
       [ Alcotest.test_case "type-7 interpolation" `Quick test_quantile_type7;
         Alcotest.test_case "validation" `Quick test_quantile_validation ]);
      ("estimate",
       [ Alcotest.test_case "normal quantile" `Quick test_normal_quantile;
         Alcotest.test_case "normal mean CI" `Quick test_normal_mean_ci;
         Alcotest.test_case "bootstrap deterministic" `Quick
           test_bootstrap_deterministic_and_contains_value;
         Alcotest.test_case "contains epsilon" `Quick test_contains_epsilon ]);
      ("tail",
       [ Alcotest.test_case "upper bounds observed max" `Quick
           test_tail_upper_bounds_observed_max;
         Alcotest.test_case "lower bounds observed min" `Quick
           test_tail_lower_bounds_observed_min;
         Alcotest.test_case "constant samples degenerate" `Quick
           test_tail_constant_samples_degenerate;
         Alcotest.test_case "parameter validation" `Quick
           test_tail_validation ]);
      ("resampling",
       [ QCheck_alcotest.to_alcotest prop_resampling_matches_reference ]);
      ("sampler",
       [ Alcotest.test_case "bit-identical across jobs" `Quick
           test_sampler_jobs_determinism;
         Alcotest.test_case "seed sensitivity" `Quick
           test_sampler_seed_sensitivity;
         Alcotest.test_case "one fan-out per run" `Quick
           test_sampler_one_fanout;
         QCheck_alcotest.to_alcotest prop_sampled_ci_contains_exhaustive;
         Alcotest.test_case "fixed-seed mean containment" `Quick
           test_fixed_seed_mean_containment ]);
      ("quantify-sample",
       [ Alcotest.test_case "validation" `Quick test_quantify_sample_validation;
         Alcotest.test_case "eval accounting" `Quick
           test_quantify_sample_counts_evals;
         Alcotest.test_case "warm cell under 300 minor words" `Quick
           test_quantify_sample_warm_cell_words ]);
      ("pinned",
       [ Alcotest.test_case "sample --format json digests (seeds 1, 2)"
           `Quick test_sample_json_pinned ]) ]
