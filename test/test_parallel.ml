(* Tests for the parallel T_p(q,i) evaluation engine: Parallel.map/fold
   semantics, exception propagation out of worker domains, and bit-identical
   results at any job count for the quantities built on top of it
   (Quantify, Cache_metrics, Experiments.run_supervised). *)

let prop_map_matches_list_map =
  QCheck.Test.make ~name:"Parallel.map ~jobs f = List.map f" ~count:60
    QCheck.(pair (int_range 1 8)
              (list_of_size (Gen.int_range 0 200) (int_range (-1000) 1000)))
    (fun (jobs, xs) ->
       let f x = (x * 7919) lxor (x lsl 3) in
       Prelude.Parallel.map ~jobs f xs = List.map f xs)

let test_map_array_ordering () =
  let xs = Array.init 1000 (fun i -> i) in
  let doubled = Prelude.Parallel.map_array ~jobs:4 (fun x -> 2 * x) xs in
  Alcotest.(check (array int)) "ordered results"
    (Array.map (fun x -> 2 * x) xs) doubled

let test_fold_chunked () =
  let xs = List.init 257 (fun i -> i + 1) in
  let expected = List.fold_left (fun acc x -> acc + (x * x)) 0 xs in
  List.iter
    (fun (jobs, chunk) ->
       Alcotest.(check int)
         (Printf.sprintf "sum of squares (jobs=%d chunk=%d)" jobs chunk)
         expected
         (Prelude.Parallel.fold ~jobs ~chunk ~map:(fun x -> x * x)
            ~combine:( + ) ~init:0 xs))
    [ (1, 16); (2, 1); (4, 7); (8, 64) ]

let test_exception_propagation () =
  Alcotest.check_raises "worker exception reaches the caller"
    (Failure "boom")
    (fun () ->
       ignore
         (Prelude.Parallel.map ~jobs:4
            (fun x -> if x = 17 then failwith "boom" else x)
            (List.init 100 Fun.id)))

let test_quantify_exception_through_pool () =
  Alcotest.check_raises "non-positive time rejected from worker domains"
    (Invalid_argument "Quantify.evaluate: execution times must be positive")
    (fun () ->
       ignore
         (Predictability.Quantify.evaluate ~jobs:4
            ~states:(List.init 16 Fun.id) ~inputs:[ 0; 1; 2 ]
            ~time:(fun q i -> if q = 11 && i = 2 then 0 else q + i + 1) ()));
  (* Two rows that reject their time at once: each waits (up to a second)
     until both have started, so both workers fail, and the caller still
     gets the documented Invalid_argument, not Multiple_failures. *)
  let started = Atomic.make 0 in
  let time _ _ =
    Atomic.incr started;
    let deadline = Prelude.Mono.now () +. 1. in
    while Atomic.get started < 2 && Prelude.Mono.now () < deadline do
      Domain.cpu_relax ()
    done;
    0
  in
  Alcotest.check_raises "simultaneous rejections stay Invalid_argument"
    (Invalid_argument "Quantify.evaluate: execution times must be positive")
    (fun () ->
       ignore
         (Predictability.Quantify.evaluate ~jobs:2 ~states:[ 0; 1 ]
            ~inputs:[ 0 ] ~time ()))

(* Regression: Parallel calls made from inside pool tasks used to spawn a
   fresh pool per worker, so nesting multiplied live domains (jobs^2 here,
   jobs^3 via run_supervised -> exp_atlas -> Quantify.evaluate) past the
   OCaml runtime's ~128-domain cap, killing the run with Domain.spawn
   failures. Nested calls now run sequentially on the worker, so this holds
   total domains at [jobs] while still returning List.map-identical
   results. *)
let test_nested_maps_bounded () =
  let jobs = 16 in
  let inner i = List.init 64 (fun j -> (i * 131) lxor j) in
  let expected = List.map (fun i -> List.map succ (inner i)) (List.init 24 Fun.id) in
  let got =
    Prelude.Parallel.map ~jobs
      (fun i -> Prelude.Parallel.map ~jobs succ (inner i))
      (List.init 24 Fun.id)
  in
  Alcotest.(check bool) "nested map = nested List.map" true (got = expected);
  (* Three levels deep for good measure: the inner two must both degrade. *)
  let deep =
    Prelude.Parallel.map ~jobs
      (fun i ->
         Prelude.Parallel.fold ~jobs ~chunk:8 ~map:Fun.id ~combine:( + ) ~init:0
           (Prelude.Parallel.map ~jobs succ (inner i)))
      (List.init 24 Fun.id)
  in
  Alcotest.(check (list int)) "triple nesting sums"
    (List.map (fun row -> List.fold_left ( + ) 0 row) expected) deep

let test_invalid_jobs () =
  Alcotest.check_raises "jobs must be >= 1"
    (Invalid_argument "Parallel: jobs must be >= 1")
    (fun () -> ignore (Prelude.Parallel.map ~jobs:0 Fun.id [ 1 ]));
  Alcotest.check_raises "set_default_jobs rejects < 1"
    (Invalid_argument "Parallel.set_default_jobs: jobs must be >= 1")
    (fun () -> Prelude.Parallel.set_default_jobs 0)

(* --- Determinism of the quantities built on the pool ------------------- *)

let job_counts = [ 1; 2; 8 ]

let ratio = Alcotest.testable Prelude.Ratio.pp Prelude.Ratio.equal

let test_quantify_determinism () =
  let states = List.init 7 Fun.id and inputs = List.init 11 Fun.id in
  let time q i = 10 + (3 * q) + ((i * i) mod 7) in
  let reference =
    Predictability.Quantify.predictability ~jobs:1 ~states ~inputs ~time ()
  in
  List.iter
    (fun jobs ->
       let pr, sipr, iipr =
         Predictability.Quantify.predictability ~jobs ~states ~inputs ~time ()
       in
       let rpr, rsipr, riipr = reference in
       Alcotest.check ratio (Printf.sprintf "Pr (jobs=%d)" jobs) rpr pr;
       Alcotest.check ratio (Printf.sprintf "SIPr (jobs=%d)" jobs) rsipr sipr;
       Alcotest.check ratio (Printf.sprintf "IIPr (jobs=%d)" jobs) riipr iipr)
    job_counts;
  let matrix jobs =
    Predictability.Quantify.evaluate ~jobs ~states ~inputs ~time ()
  in
  let times1 = Predictability.Quantify.times (matrix 1) in
  List.iter
    (fun jobs ->
       Alcotest.(check (list int))
         (Printf.sprintf "matrix row-major times (jobs=%d)" jobs)
         times1
         (Predictability.Quantify.times (matrix jobs)))
    job_counts

let test_cache_metrics_determinism () =
  let estimate_to_pair = function
    | Predictability.Cache_metrics.Exact n -> (true, n)
    | Predictability.Cache_metrics.Beyond n -> (false, n)
  in
  List.iter
    (fun kind ->
       let reference =
         (Predictability.Cache_metrics.evict ~jobs:1 kind ~ways:2 ~max_probes:8,
          Predictability.Cache_metrics.fill ~jobs:1 kind ~ways:2 ~max_probes:8)
       in
       List.iter
         (fun jobs ->
            let got =
              (Predictability.Cache_metrics.evict ~jobs kind ~ways:2
                 ~max_probes:8,
               Predictability.Cache_metrics.fill ~jobs kind ~ways:2
                 ~max_probes:8)
            in
            Alcotest.(check (pair (pair bool int) (pair bool int)))
              (Printf.sprintf "%s evict/fill (jobs=%d)"
                 (Cache.Policy.kind_name kind) jobs)
              (estimate_to_pair (fst reference), estimate_to_pair (snd reference))
              (estimate_to_pair (fst got), estimate_to_pair (snd got)))
         job_counts)
    [ Cache.Policy.Lru; Cache.Policy.Fifo; Cache.Policy.Plru;
      Cache.Policy.Mru; Cache.Policy.Round_robin ]

let test_wcet_bracket_determinism () =
  let w = Isa.Workload.fir ~taps:3 ~samples:4 in
  let _, shapes = Isa.Workload.program w in
  let config unroll =
    { Analysis.Wcet.icache =
        Analysis.Wcet.Cached_fetch
          { config = Predictability.Harness.icache_config;
            hit = Predictability.Harness.icache_hit;
            miss = Predictability.Harness.icache_miss };
      dmem = Analysis.Wcet.Range_data { best = 1; worst = 8 };
      unroll; budget = None }
  in
  let sequential_ub =
    Analysis.Wcet.bound (config true) Analysis.Wcet.Upper ~shapes ~entry:"main"
  in
  let sequential_lb =
    Analysis.Wcet.bound (config false) Analysis.Wcet.Lower ~shapes ~entry:"main"
  in
  (* The walks run on the calling domain whatever the default job count;
     pin that the count cannot change them. *)
  List.iter
    (fun jobs ->
       let ub, lb =
         Prelude.Parallel.set_default_jobs jobs;
         Fun.protect
           ~finally:(fun () ->
               Prelude.Parallel.set_default_jobs
                 (Prelude.Parallel.recommended_jobs ()))
           (fun () ->
              Analysis.Wcet.bracket ~upper:(config true) ~lower:(config false)
                ~shapes ~entry:"main" ())
       in
       Alcotest.(check int) (Printf.sprintf "UB (jobs=%d)" jobs)
         sequential_ub.Analysis.Wcet.bound ub.Analysis.Wcet.bound;
       Alcotest.(check int) (Printf.sprintf "LB (jobs=%d)" jobs)
         sequential_lb.Analysis.Wcet.bound lb.Analysis.Wcet.bound;
       Alcotest.(check bool) (Printf.sprintf "UB observations (jobs=%d)" jobs)
         true (ub = sequential_ub);
       Alcotest.(check bool) (Printf.sprintf "LB observations (jobs=%d)" jobs)
         true (lb = sequential_lb))
    job_counts

(* Regression: TAB1.R2's [time] closure accumulates Superscalar.run results
   from whichever domains evaluate the matrix rows; unsynchronised, that ref
   update raced and could drop results, nondeterministically undercounting
   distinct BB-entry pipeline states. The accumulator is now mutex-guarded,
   so the report (a set cardinality) is identical at any job count. The
   experiment reads the process-wide default, so set it around each run. *)
let test_superscalar_signatures_deterministic () =
  let run jobs =
    Prelude.Parallel.set_default_jobs jobs;
    Fun.protect
      ~finally:(fun () ->
          Prelude.Parallel.set_default_jobs (Prelude.Parallel.recommended_jobs ()))
      (fun () -> Predictability.Experiments.run "TAB1.R2")
  in
  let reference = run 1 in
  List.iteri
    (fun attempt jobs ->
       Alcotest.(check bool)
         (Printf.sprintf "TAB1.R2 outcome bit-identical (jobs=%d, attempt %d)"
            jobs attempt)
         true (run jobs = reference))
    [ 2; 8; 8; 8 ]

(* The acceptance criterion of the engine: the full experiment suite is
   bit-identical (outcome for outcome) across job counts. Timing metadata is
   excluded from the comparison (wall-clock necessarily differs). *)
let test_run_all_bit_identical () =
  let outcomes jobs =
    List.map
      (fun s ->
         match s.Predictability.Experiments.s_outcome with
         | Some outcome -> outcome
         | None -> Alcotest.failf "%s did not complete" s.s_id)
      (Predictability.Experiments.run_supervised ~jobs ())
  in
  let sequential = outcomes 1 in
  let parallel = outcomes 4 in
  Alcotest.(check int) "same number of outcomes"
    (List.length sequential) (List.length parallel);
  List.iter2
    (fun (seq : Predictability.Report.outcome) par ->
       Alcotest.(check bool)
         (Printf.sprintf "outcome %s bit-identical across jobs 1/4"
            seq.Predictability.Report.id)
         true (seq = par))
    sequential parallel

let test_instrument_attribution () =
  let states = List.init 6 Fun.id and inputs = List.init 9 Fun.id in
  let run jobs =
    let _, timing =
      Predictability.Harness.try_timed (fun () ->
          Predictability.Quantify.evaluate ~jobs ~states ~inputs
            ~time:(fun q i -> q + i + 1) ())
    in
    timing
  in
  List.iter
    (fun jobs ->
       let timing = run jobs in
       Alcotest.(check int)
         (Printf.sprintf "cells attributed to caller (jobs=%d)" jobs)
         (List.length states * List.length inputs)
         timing.Predictability.Report.cells;
       Alcotest.(check int)
         (Printf.sprintf "evals attributed to caller (jobs=%d)" jobs)
         (List.length states * List.length inputs)
         timing.Predictability.Report.evals)
    job_counts

let () =
  Alcotest.run "parallel"
    [ ("engine",
       [ QCheck_alcotest.to_alcotest prop_map_matches_list_map;
         Alcotest.test_case "map_array ordering" `Quick test_map_array_ordering;
         Alcotest.test_case "chunked fold" `Quick test_fold_chunked;
         Alcotest.test_case "exception propagation" `Quick
           test_exception_propagation;
         Alcotest.test_case "exception through Quantify pool" `Quick
           test_quantify_exception_through_pool;
         Alcotest.test_case "nested maps stay domain-bounded" `Quick
           test_nested_maps_bounded;
         Alcotest.test_case "invalid job counts" `Quick test_invalid_jobs ]);
      ("determinism",
       [ Alcotest.test_case "Quantify.predictability jobs 1/2/8" `Quick
           test_quantify_determinism;
         Alcotest.test_case "TAB1.R2 signature count jobs 1/2/8" `Quick
           test_superscalar_signatures_deterministic;
         Alcotest.test_case "Cache_metrics evict/fill jobs 1/2/8" `Quick
           test_cache_metrics_determinism;
         Alcotest.test_case "Wcet.bracket jobs 1/2/8" `Quick
           test_wcet_bracket_determinism;
         Alcotest.test_case "run_all jobs 1 vs 4 bit-identical" `Slow
           test_run_all_bit_identical ]);
      ("instrumentation",
       [ Alcotest.test_case "counter attribution across pools" `Quick
           test_instrument_attribution ]) ]
