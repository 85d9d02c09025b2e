(* Benchmark harness.

   Part 1 regenerates every table and figure of the paper: Figure 1, the
   Equation-4 series, every row of Tables 1 and 2, the related-work results,
   and the ablation studies — each run under the experiment supervisor, as
   `predlab all` runs it, and printed with its reproduction checks and
   per-experiment instrumentation (wall clock, Q*I cells, kernel evals).

   Part 2 is the Bechamel microbenchmark suite: one [Test.make] per paper
   artefact, timing the computational kernel behind that experiment, so
   regressions in the simulators and analyses are visible.

   Part 3 demonstrates the parallel T_p(q,i) evaluation engine: EXT.ATLAS
   timed at jobs=1 and jobs=N, with the results checked bit-identical;
   RW.CACHE, whose fast exploration is sequential, rides along as a check
   that its table does not depend on the job count. Pass [--jobs N] to
   override N (default: Domain.recommended_domain_count). *)

open Bechamel
open Toolkit

(* --- Part 2 fixtures: prepared outside the staged closures. ------------- *)

let fig1_fixture =
  let w = Isa.Workload.bubble_sort ~n:5 in
  let program, _ = Isa.Workload.program w in
  let state =
    match Predictability.Harness.inorder_states program w with
    | q :: _ -> q
    | [] -> assert false
  in
  let input = match w.Isa.Workload.inputs with i :: _ -> i | [] -> assert false in
  (program, state, input)

(* The fast-path kernels time [cell 0 0] of a grid built once over the
   fixture's state and input, as Quantify and the daemon's eval address
   cells. Over one shared engine the benchmark measures the steady state
   (compiled trace + warm memo), which is what a Q*I sweep amortises to. *)
let fig1_grid engine =
  let _, state, input = fig1_fixture in
  Fastpath.Engine.grid engine [| state |] [| input |]

let fig1_fast_fixture =
  let program, _, _ = fig1_fixture in
  fig1_grid (Fastpath.Engine.create program)

(* Serve-daemon query cost: one request line through the wire format
   (parse, dispatch-shaped grid cell, envelope, emit). The cached variant
   answers from the warm memo like a resident daemon; the uncached one
   (an unmemoized engine's grid) replays the cell every time, the
   daemon's cold-start (or post-eviction) latency. *)
let serve_request_line =
  Prelude.Json.to_string
    (Serve.Protocol.request_to_json
       (Serve.Protocol.Eval { workload = "bubble_sort"; state = 0; input = 0 }))

let serve_unmemoized_fixture =
  let program, _, _ = fig1_fixture in
  fig1_grid (Fastpath.Engine.create ~memo:false program)

let serve_cell_query cell =
  let request =
    match
      Result.bind (Prelude.Json.parse serve_request_line)
        Serve.Protocol.request_of_json
    with
    | Ok (request, _) -> request
    | Error message -> failwith message
  in
  match request with
  | Serve.Protocol.Eval _ ->
    let time = cell 0 0 in
    Prelude.Json.to_string
      (Serve.Protocol.ok ~op:"eval"
         (Prelude.Json.Obj [ ("time_cycles", Prelude.Json.Int time) ]))
  | _ -> assert false

(* Whole-daemon concurrent throughput: a resident worker pool (conns=4)
   serving 4 persistent clients over real sockets, one pipelined round of
   4 eval requests per run. Times the full stack — bounded frame reader,
   mutex-guarded shared engine, per-request counter aggregation — under
   genuine cross-connection concurrency, which cell_query_cached (in-
   process, single caller) cannot see. Lazy so `--only` runs that filter
   it out never start a daemon. The pool kernel is measured in its own
   second bechamel phase and the daemon is torn down eagerly right after
   (see run_microbenchmarks): the resident domains inflate every other
   kernel's stop-the-world GC syncs by 5-2000x if left alive during the
   main phase. The at_exit is a belt-and-braces fallback so the process
   never exits with a live domain. *)
let serve_pool_request =
  Serve.Protocol.request_to_json
    (Serve.Protocol.Eval { workload = "bubble_sort"; state = 0; input = 0 })

let serve_pool_cleanup = ref (fun () -> ())

let serve_pool_fixture =
  lazy
    (let socket =
       Filename.concat (Filename.get_temp_dir_name ())
         (Printf.sprintf "predlab-bench-%d.sock" (Unix.getpid ()))
     in
     let config =
       { Serve.Daemon.socket; jobs = 1; deadline_s = None; conns = 4;
         queue = Serve.Daemon.default_queue; idle_s = None; drain_s = 2.;
         max_frame = Serve.Daemon.default_max_frame }
     in
     let daemon = Serve.Daemon.start config in
     let clients =
       List.init 4 (fun _ ->
           match Serve.Client.connect socket with
           | Ok c -> c
           | Error m -> failwith ("bench: serve fixture connect: " ^ m))
     in
     let torn = ref false in
     serve_pool_cleanup :=
       (fun () ->
          if not !torn then begin
            torn := true;
            List.iter Serve.Client.close clients;
            Serve.Daemon.stop daemon
          end);
     at_exit (fun () -> !serve_pool_cleanup ());
     clients)

let serve_pool_teardown () = !serve_pool_cleanup ()

let serve_concurrent_round () =
  let clients = Lazy.force serve_pool_fixture in
  List.iter
    (fun c ->
       match Serve.Client.send ~timeout_s:30. c serve_pool_request with
       | Ok () -> ()
       | Error e ->
         failwith ("bench: serve send: " ^ Serve.Client.error_message e))
    clients;
  List.iter
    (fun c ->
       match Serve.Client.recv ~timeout_s:30. c with
       | Ok _ -> ()
       | Error e ->
         failwith ("bench: serve recv: " ^ Serve.Client.error_message e))
    clients

let branch_fixture =
  let w = Isa.Workload.branchy ~n:16 in
  let program, _ = Isa.Workload.program w in
  let input = match w.Isa.Workload.inputs with i :: _ -> i | [] -> assert false in
  Pipeline.Trace_util.branch_events program (Isa.Exec.run program input)

let superscalar_fixture =
  let w = Predictability.Exp_superscalar.kernel_workload () in
  let program, _ = Isa.Workload.program w in
  let input = match w.Isa.Workload.inputs with i :: _ -> i | [] -> assert false in
  (program, Isa.Exec.run program input)

let outcome_of w =
  let program, _ = Isa.Workload.program w in
  let input = match w.Isa.Workload.inputs with i :: _ -> i | [] -> assert false in
  (program, Isa.Exec.run program input)

let smt_fixture =
  let _, rt = outcome_of (Isa.Workload.fir ~taps:2 ~samples:3) in
  let _, co = outcome_of (Isa.Workload.crc ~bits:10) in
  (rt, co)

let tdm_fixture =
  List.init 12 (fun i ->
      { Arbiter.Arbitration.client = i mod 4; arrival = i * 7; service = 4 })

let interleaved_fixture =
  let _, a = outcome_of (Isa.Workload.crc ~bits:8) in
  let _, b = outcome_of (Isa.Workload.max_array ~n:8) in
  [ a; b; a; b ]

let ooo_fixture = outcome_of (Isa.Workload.fir ~taps:3 ~samples:4)

let method_cache_fixture =
  let w = Isa.Workload.call_chain ~calls:4 ~rounds:6 in
  outcome_of w

let mustmay_fixture = List.init 64 (fun i -> (i mod 12) * 4)

let locking_fixture =
  let program, outcome = outcome_of (Isa.Workload.crc ~bits:10) in
  let cfg = { Cache.Set_assoc.sets = 2; ways = 2; line = 16; kind = Cache.Policy.Lru } in
  let blocks =
    Array.to_list outcome.Isa.Exec.trace
    |> List.map (fun (ev : Isa.Exec.event) ->
        Cache.Set_assoc.block_of_addr cfg (Isa.Program.instr_address program ev.pc))
  in
  let profile =
    List.map (fun b -> (b, 1)) (Prelude.Listx.uniq Stdlib.compare blocks)
  in
  (Cache.Locking.lock_greedy ~config:cfg ~profile, blocks)

let dram_fixture =
  let timing = Dram.Timing.default in
  let config =
    { Dram.Controller.timing; policy = Dram.Controller.Amc;
      refresh = Dram.Controller.Distributed; refresh_phase = 0; clients = 2 }
  in
  let requests =
    Dram.Traffic.streaming ~client:0 ~banks:timing.Dram.Timing.banks ~count:16
      ~period:30 0
    @ Dram.Traffic.streaming ~client:1 ~banks:timing.Dram.Timing.banks ~count:16
        ~period:30 3
  in
  (config, requests)

let singlepath_fixture = Isa.Workload.clamp ()

let wcet_fixture =
  let w = Isa.Workload.fir ~taps:3 ~samples:4 in
  let _, shapes = Isa.Workload.program w in
  shapes

(* Sampling kernels: a synthetic 32x32 cell space (pure arithmetic timer,
   so the estimator machinery — keyed substreams, stratified passes,
   bootstrap resampling, tail extrapolation — is what gets timed, not a
   simulator), plus the unbiased Rng.int rejection path at a worst-case
   bound and the bootstrap/tail stages in isolation. *)
let sampling_spec =
  { Sampling.Sampler.default with
    Sampling.Sampler.n_cells = 128; per_stratum = 8; resamples = 50 }

let sampling_time q i = 10 + (((q * 31) + (i * 17)) mod 13)

let sampling_samples = Array.init 256 (fun k -> 10 + (k * 29 mod 97))

(* Just under 3 * 2^60: about 1/3 of raw draws fall in the rejection zone,
   so this times the resample loop where the modulo bias used to hide. *)
let rejection_bound = (1 lsl 60) * 3 - 11

(* The path DEF.SAMPLE spends its time on: one sampled analysis of a real
   workload through the fast-path engine, with a cold memo (analyze builds
   its own timer on every call) and the default bootstrap. *)
let sampled_entry =
  ("bubble_sort", List.assoc "bubble_sort" Isa.Workload.registry)

let wcet_config = Predictability.Harness.cached_analysis ~unroll:true

(* Each kernel records its evaluation engine ("exact" | "fast") and the
   worker-domain count its closure uses — both land in the per-kernel JSON
   (schema v2), so trajectory points are comparable like for like. Kernels
   that fan out at the default width record the bench-wide [jobs]; everything
   else runs on the calling domain (jobs = 1). The FIG1 and RW.CACHE fast
   kernels keep the historical names — `predlab compare` then reports their
   speedup against the exact baseline — with `_exact` twins pinning the old
   path. EXT.EXTENT's twins now run the same code; both names stay because
   `predlab compare` reports a kernel missing from the next point. *)
type kernel_spec = {
  k_name : string;
  k_engine : string;
  k_jobs : int;
  k_test : Test.t;
}

let kernel_specs jobs =
  let stage ?(engine = "exact") ?(kjobs = 1) name f =
    { k_name = "predlab/" ^ name; k_engine = engine; k_jobs = kjobs;
      k_test = Test.make ~name (Staged.stage f) }
  in
  [ stage ~engine:"fast" "FIG1/inorder_T(q,i)" (fun () ->
        fig1_fast_fixture 0 0);
    stage "FIG1/inorder_T(q,i)_exact" (fun () ->
        let program, state, input = fig1_fixture in
        Pipeline.Inorder.time program state input);
    stage ~engine:"fast" "SERVE/cell_query_cached" (fun () ->
        serve_cell_query fig1_fast_fixture);
    stage ~engine:"fast" "SERVE/cell_query_uncached" (fun () ->
        serve_cell_query serve_unmemoized_fixture);
    stage ~engine:"fast" ~kjobs:4 "SERVE/concurrent_throughput" (fun () ->
        serve_concurrent_round ());
    stage "EQ4/domino_kernel_n32" (fun () ->
        Predictability.Exp_eq4.time ~dispatch:Pipeline.Ooo.Greedy 32
          Predictability.Exp_eq4.q_primed);
    stage "TAB1.R1/two_bit_trace" (fun () ->
        Branchpred.Predictor.run
          (Branchpred.Predictor.two_bit ~entries:16 ~init:0) branch_fixture);
    stage "TAB1.R2/superscalar_run" (fun () ->
        let _, outcome = superscalar_fixture in
        Pipeline.Superscalar.run
          { Pipeline.Superscalar.width = 2; regulate = true } ~init:[] outcome);
    stage "TAB1.R3/smt_priority" (fun () ->
        let rt, co = smt_fixture in
        Pipeline.Smt.rt_time Pipeline.Smt.Rt_priority ~rt ~others:[ co ]);
    stage "TAB1.R4/tdm_link" (fun () ->
        Arbiter.Arbitration.simulate (Arbiter.Arbitration.Tdm { slot = 4 })
          ~clients:4 tdm_fixture);
    stage "TAB1.R5/interleaved" (fun () ->
        Pipeline.Interleaved.run ~threads:interleaved_fixture);
    stage "TAB1.R6/ooo_virtual_traces" (fun () ->
        let program, outcome = ooo_fixture in
        Pipeline.Ooo.run_trace
          (Pipeline.Ooo.trace_config ~virtual_traces:true ~constant_ops:true ())
          ~init:(0, 0) program outcome);
    stage "TAB1.R7/ooo_greedy_trace" (fun () ->
        let program, outcome = ooo_fixture in
        Pipeline.Ooo.run_trace (Pipeline.Ooo.trace_config ()) ~init:(0, 0)
          program outcome);
    stage "TAB2.R1/method_cache_replay" (fun () ->
        let program, outcome = method_cache_fixture in
        let cache = ref (Cache.Method_cache.make { blocks = 8; block_size = 8 }) in
        Array.iter
          (fun (ev : Isa.Exec.event) ->
             match ev.Isa.Exec.ins with
             | Isa.Instr.Call callee ->
               let size =
                 match List.assoc_opt callee (Isa.Program.functions program) with
                 | Some (_, len) -> len
                 | None -> 1
               in
               let _, c = Cache.Method_cache.request !cache ~name:callee ~size in
               cache := c
             | _ -> ())
          outcome.Isa.Exec.trace);
    stage "TAB2.R2/must_may_stream" (fun () ->
        let a =
          ref (Analysis.Must_may.unknown
                 { Cache.Set_assoc.sets = 4; ways = 2; line = 2;
                   kind = Cache.Policy.Lru })
        in
        List.iter (fun addr -> a := Analysis.Must_may.access !a addr)
          mustmay_fixture);
    stage "TAB2.R3/locking_hits" (fun () ->
        let locking, blocks = locking_fixture in
        Cache.Locking.hits locking blocks);
    stage "TAB2.R4/dram_amc" (fun () ->
        let config, requests = dram_fixture in
        Dram.Controller.simulate config requests);
    stage "TAB2.R5/refresh_windows" (fun () ->
        let config, _ = dram_fixture in
        Dram.Controller.refresh_windows config ~horizon:100000);
    stage "TAB2.R6/singlepath_transform" (fun () ->
        Singlepath.Transform.transform singlepath_fixture);
    stage ~engine:"fast" "RW.CACHE/evict_lru4" (fun () ->
        Predictability.Cache_metrics.evict ~engine:`Fast Cache.Policy.Lru
          ~ways:4 ~max_probes:6);
    stage ~kjobs:jobs "RW.CACHE/evict_lru4_exact" (fun () ->
        Predictability.Cache_metrics.evict Cache.Policy.Lru ~ways:4 ~max_probes:6);
    (* The path RW.CACHE spends its time on: a fill horizon beyond the
       budget explores every depth, and MRU has the most metadata patterns.
       Budget 9 of RW.CACHE's 14 keeps the work the same across bench
       points; one run takes about 0.3 ms. *)
    stage ~engine:"fast" "RW.CACHE/fill_mru4" (fun () ->
        Predictability.Cache_metrics.fill ~engine:`Fast Cache.Policy.Mru
          ~ways:4 ~max_probes:9);
    stage "DEF.SAMPLE/sampler_run" (fun () ->
        Sampling.Sampler.run ~jobs:1 ~spec:sampling_spec ~n_states:32
          ~n_inputs:32 ~time:sampling_time ());
    stage ~engine:"fast" "DEF.SAMPLE/analyze" (fun () ->
        Predictability.Sampled.analyze ~jobs:1 sampled_entry);
    stage "DEF.SAMPLE/bootstrap_mean_ci" (fun () ->
        Sampling.Estimate.bootstrap ~rng:(Prelude.Rng.make 11) ~resamples:50
          ~confidence:0.99
          ~stat:(fun a ->
              float_of_int (Array.fold_left ( + ) 0 a)
              /. float_of_int (Array.length a))
          sampling_samples);
    stage "DEF.SAMPLE/tail_extrapolate" (fun () ->
        Sampling.Tail.estimate ~rng:(Prelude.Rng.make 12) ~resamples:50
          ~confidence:0.99 ~tail_fraction:0.25 ~exceed_p:0.001
          Sampling.Tail.Upper sampling_samples);
    stage "DEF.SAMPLE/rng_int_rejection" (fun () ->
        let rng = Prelude.Rng.make 13 in
        let acc = ref 0 in
        for _ = 1 to 64 do
          acc := !acc lxor Prelude.Rng.int rng rejection_bound
        done;
        !acc);
    stage "CERT/taint_analyze" (fun () ->
        Dataflow.Taint.of_workload singlepath_fixture);
    stage "CERT/certify_flat" (fun () ->
        Analysis.Certify.certify Predictability.Certifier.flat_machine
          singlepath_fixture);
    stage "CERT/certify_cached" (fun () ->
        Analysis.Certify.certify Predictability.Certifier.cached_machine
          singlepath_fixture);
    stage "RW.DYN/width_profile" (fun () ->
        Predictability.Dynamical.width_profile
          ~f:(Predictability.Dynamical.logistic ~r:4.0) ~x0:0.237 ~delta:1e-4
          ~steps:16);
    stage "RW.ANOMALY/delayed_start" (fun () ->
        Predictability.Exp_eq4.time ~dispatch:Pipeline.Ooo.Greedy 16 (1, 0));
    stage "ABLATE/wcet_bound" (fun () ->
        Analysis.Wcet.bound wcet_config Analysis.Wcet.Upper ~shapes:wcet_fixture
          ~entry:"main");
    stage "EXT.COMP/interval_bound" (fun () ->
        Predictability.Composition.sequential_pr
          [ Predictability.Composition.component ~label:"a" ~bcet:70 ~wcet:124;
            Predictability.Composition.component ~label:"b" ~bcet:88 ~wcet:142;
            Predictability.Composition.component ~label:"c" ~bcet:124 ~wcet:152 ]);
    stage "EXT.EXTENT/profile" (fun () ->
        Predictability.Extent.profile ~states:[ 0; 1; 2 ] ~inputs:[ 0; 1; 2; 3 ]
          ~time:(fun q i -> 10 + q + (2 * i))
          ~cuts:[ ("a", 1, 1); ("b", 2, 2); ("c", 3, 4) ] ());
    stage "EXT.EXTENT/profile_exact" (fun () ->
        Predictability.Extent.profile ~states:[ 0; 1; 2 ] ~inputs:[ 0; 1; 2; 3 ]
          ~time:(fun q i -> 10 + q + (2 * i))
          ~cuts:[ ("a", 1, 1); ("b", 2, 2); ("c", 3, 4) ] ());
    stage "EXT.SCHED/fp_hyperperiod" (fun () ->
        Sched.Fixed_priority.responses
          [ Sched.Task.make ~name:"hi" ~period:20 ~bcet:2 ~wcet:6 ~priority:0;
            Sched.Task.make ~name:"mid" ~period:40 ~bcet:4 ~wcet:10 ~priority:1;
            Sched.Task.make ~name:"victim" ~period:80 ~bcet:9 ~wcet:9 ~priority:2 ]
          Sched.Task.all_wcet);
    stage "EXT.BUS/tdm_multicore" (fun () ->
        let core =
          List.concat
            (List.init 8 (fun _ ->
                 [ Pipeline.Multicore.Compute 2; Pipeline.Multicore.Mem ]))
        in
        Pipeline.Multicore.run ~policy:(Pipeline.Multicore.Bus_tdm { slot = 4 })
          ~service:4 [ core; core; core ]);
    stage "EXT.BUDGET/bounded_wcet" (fun () ->
        Analysis.Wcet.bound { wcet_config with Analysis.Wcet.budget = Some 1 }
          Analysis.Wcet.Upper ~shapes:wcet_fixture ~entry:"main") ]

let run_microbenchmarks ?only jobs =
  print_endline "--- Part 2: Bechamel microbenchmarks (ns per run) ---";
  let specs = kernel_specs jobs in
  let specs =
    match only with
    | None -> specs
    | Some substr ->
      (* Substring filter (bench --only SUBSTR): run just the matching
         kernels, e.g. `--only DEF.SAMPLE` as a CI smoke of the sampling
         kernels without the full suite. *)
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec at i =
          i + nn <= nh && (String.sub hay i nn = needle || at (i + 1))
        in
        nn = 0 || at 0
      in
      let matching =
        List.filter (fun k -> contains k.k_name substr) specs
      in
      if matching = [] then begin
        Printf.eprintf "bench: --only %s matches no kernel\n" substr;
        exit 2
      end;
      matching
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:300 ~quota:(Time.second 0.2) ~kde:None
      ~stabilize:false ()
  in
  let measure specs =
    if specs = [] then []
    else
      let grouped =
        Test.make_grouped ~name:"predlab" (List.map (fun k -> k.k_test) specs)
      in
      let raw = Benchmark.all cfg instances grouped in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      Hashtbl.fold
        (fun name ols_result acc -> (name, ols_result) :: acc)
        results []
  in
  (* The resident serve pool (daemon + worker domains) inflates every
     other kernel's stop-the-world GC syncs, so the pool kernel gets its
     own second phase and the daemon is torn down before returning.
     Explicit lets: [@] evaluates right to left and would measure the
     pool phase first, polluting the main phase it was split from. *)
  let pool_specs, main_specs =
    List.partition
      (fun k -> k.k_name = "predlab/SERVE/concurrent_throughput")
      specs
  in
  let main_rows = measure main_specs in
  let pool_rows = measure pool_specs in
  serve_pool_teardown ();
  let rows = main_rows @ pool_rows in
  let kernels =
    List.map
      (fun spec ->
         let estimate =
           match List.assoc_opt spec.k_name rows with
           | Some ols_result -> (
               match Analyze.OLS.estimates ols_result with
               | Some (v :: _) -> Some v
               | Some [] | None -> None)
           | None -> None
         in
         (spec, estimate))
      (List.sort (fun a b -> Stdlib.compare a.k_name b.k_name) specs)
  in
  List.iter
    (fun (spec, estimate) ->
       let text =
         match estimate with
         | Some v -> Printf.sprintf "%12.1f" v
         | None -> "      (n/a)"
       in
       Printf.printf "%-44s %s ns/run  [%s, jobs=%d]\n" spec.k_name text
         spec.k_engine spec.k_jobs)
    kernels;
  kernels

(* --- Part 3: parallel-engine speedup on the exhaustive experiments. ----- *)

let time_run f =
  let started = Prelude.Mono.now () in
  let v = f () in
  (v, Prelude.Mono.now () -. started)

type speedup = {
  case : string;
  seq_s : float;
  par_s : float;
  par_jobs : int;
  bit_identical : bool;
}

let run_speedup_suite jobs =
  Printf.printf
    "--- Part 3: parallel evaluation engine (jobs=1 vs jobs=%d) ---\n" jobs;
  let cases =
    [ ("ext_atlas", fun () -> Predictability.Exp_atlas.run ());
      ("rw_cache_metrics", fun () -> Predictability.Exp_cache_metrics.run ()) ]
  in
  let speedups =
    List.map
      (fun (name, runner) ->
         Prelude.Parallel.set_default_jobs 1;
         let seq_outcome, seq_s = time_run runner in
         Prelude.Parallel.set_default_jobs jobs;
         let par_outcome, par_s = time_run runner in
         let record =
           { case = name; seq_s; par_s; par_jobs = jobs;
             bit_identical = seq_outcome = par_outcome }
         in
         Printf.printf
           "%-20s jobs=1: %.3fs   jobs=%d: %.3fs   speedup: %.2fx   \
            bit-identical: %b\n%!"
           name seq_s jobs par_s
           (if par_s > 0. then seq_s /. par_s else Float.infinity)
           record.bit_identical;
         record)
      cases
  in
  Prelude.Parallel.set_default_jobs jobs;
  speedups

(* --- The BENCH_<n>.json trajectory point (--json FILE). ----------------- *)

let speedup_to_json s =
  Prelude.Json.Obj
    [ ("name", Prelude.Json.String s.case);
      ("seq_s", Prelude.Json.Float s.seq_s);
      ("par_s", Prelude.Json.Float s.par_s);
      ("jobs", Prelude.Json.Int s.par_jobs);
      ("speedup",
       if s.par_s > 0. then Prelude.Json.Float (s.seq_s /. s.par_s)
       else Prelude.Json.Null);
      ("bit_identical", Prelude.Json.Bool s.bit_identical) ]

let kernel_to_json (spec, estimate) =
  Prelude.Json.Obj
    [ ("name", Prelude.Json.String spec.k_name);
      ("engine", Prelude.Json.String spec.k_engine);
      ("jobs", Prelude.Json.Int spec.k_jobs);
      ("ns_per_run",
       match estimate with
       | Some ns -> Prelude.Json.Float ns
       | None -> Prelude.Json.Null) ]

(* Schema v2: v1 plus per-kernel "engine"/"jobs", the core count beside
   the job count, and supervised experiment records (status, attempts,
   resumed). `predlab compare` reads v1 and v2 on either side, so new
   trajectory points still diff against the v1 baseline. *)
let bench_json ~jobs ~elapsed_s ~results ~speedups ~kernels =
  Prelude.Json.Obj
    [ ("schema", Prelude.Json.String "predlab/bench");
      ("version", Prelude.Json.Int 2);
      ("jobs", Prelude.Json.Int jobs);
      ("nproc", Prelude.Json.Int (Prelude.Parallel.recommended_jobs ()));
      ("elapsed_s", Prelude.Json.Float elapsed_s);
      ("wall_sum_s",
       Prelude.Json.Float
         (Predictability.Experiments.supervised_wall_sum results));
      ("experiments",
       Prelude.Json.List
         (List.map Predictability.Experiments.supervised_result_to_json
            results));
      ("kernels", Prelude.Json.List (List.map kernel_to_json kernels));
      ("speedups", Prelude.Json.List (List.map speedup_to_json speedups)) ]

let parse_args () =
  let jobs = ref (Prelude.Parallel.recommended_jobs ()) in
  let json_file = ref "" in
  let only = ref "" in
  let args =
    [ ("--jobs", Arg.Set_int jobs,
       "N  worker domains for Part 3 (default: recommended_domain_count)");
      ("--json", Arg.Set_string json_file,
       "FILE  also write the whole run as a machine-readable trajectory \
        point (BENCH_<n>.json; schema predlab/bench, the baseline format \
        of `predlab compare`)");
      ("--only", Arg.Set_string only,
       "SUBSTR  run only the Part 2 microbenchmark kernels whose name \
        contains SUBSTR, skipping Parts 1 and 3 (not combinable with \
        --json: a filtered run is not a trajectory point)") ]
  in
  Arg.parse args
    (fun anon -> raise (Arg.Bad ("unexpected argument " ^ anon)))
    "bench [--jobs N] [--json FILE] [--only SUBSTR]";
  if !only <> "" && !json_file <> "" then begin
    prerr_endline "bench: --only and --json are mutually exclusive";
    exit 2
  end;
  (Stdlib.max 1 !jobs,
   (if !json_file = "" then None else Some !json_file),
   if !only = "" then None else Some !only)

let () =
  let jobs, json_file, only = parse_args () in
  (match only with
   | Some substr ->
     ignore (run_microbenchmarks ~only:substr jobs);
     exit 0
   | None -> ());
  let started = Prelude.Mono.now () in
  print_endline "=== Predlab benchmark harness ===";
  print_endline "--- Part 1: regenerate every figure and table of the paper ---";
  print_newline ();
  print_endline "Survey casting (paper Tables 1 and 2 as template instances):";
  print_string (Predictability.Survey.render Predictability.Survey.table1);
  print_string (Predictability.Survey.render Predictability.Survey.table2);
  print_newline ();
  let results = Predictability.Experiments.run_supervised ~jobs () in
  List.iter
    (fun s ->
       print_string (Predictability.Experiments.supervised_render s);
       print_newline ())
    results;
  let failed =
    Predictability.Experiments.supervised_failures results
    @ Predictability.Experiments.supervised_check_failures results
  in
  Printf.printf "Reproduction summary: %d/%d experiments passed all checks\n\n"
    (List.length results - List.length failed)
    (List.length results);
  let speedups = run_speedup_suite jobs in
  print_newline ();
  let kernels = run_microbenchmarks jobs in
  let doc =
    bench_json ~jobs ~elapsed_s:(Prelude.Mono.now () -. started) ~results
      ~speedups ~kernels
  in
  let fast_gate = Predictability.Regression.fast_gate doc in
  List.iter
    (fun f ->
       prerr_endline
         ("bench: " ^ Predictability.Regression.finding_string f))
    fast_gate;
  (match json_file with
   | None -> ()
   | Some path ->
     Out_channel.with_open_text path (fun oc ->
         Out_channel.output_string oc (Prelude.Json.to_string_pretty doc));
     Printf.printf "wrote %s\n" path);
  if failed <> [] || fast_gate <> [] then exit 1
