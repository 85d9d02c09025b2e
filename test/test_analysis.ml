(* Tests for the static analyses: must/may abstract cache domains (with
   soundness against concrete simulation), structural WCET/BCET bounds
   (soundness against exhaustive exploration), and misprediction bounds. *)

let cache_cfg =
  { Cache.Set_assoc.sets = 2; ways = 2; line = 4; kind = Cache.Policy.Lru }

(* --- Must/may basics ----------------------------------------------------- *)

let test_must_hit_after_access () =
  let a = Analysis.Must_may.unknown cache_cfg in
  Alcotest.(check string) "unknown initially" "NC"
    (Analysis.Must_may.classification_name (Analysis.Must_may.classify a 0));
  let a = Analysis.Must_may.access a 0 in
  Alcotest.(check string) "guaranteed after access" "AH"
    (Analysis.Must_may.classification_name (Analysis.Must_may.classify a 0))

let test_cold_always_miss () =
  let a = Analysis.Must_may.cold cache_cfg in
  Alcotest.(check string) "first access to a cold cache is AM" "AM"
    (Analysis.Must_may.classification_name (Analysis.Must_may.classify a 0))

let test_must_eviction_by_aging () =
  (* Two-way set: after two younger blocks, the oldest is no longer
     guaranteed. Addresses 0, 8, 16 share set 0. *)
  let a = Analysis.Must_may.unknown cache_cfg in
  let a = Analysis.Must_may.access a 0 in
  let a = Analysis.Must_may.access a 8 in
  Alcotest.(check string) "both fit" "AH"
    (Analysis.Must_may.classification_name (Analysis.Must_may.classify a 0));
  let a = Analysis.Must_may.access a 16 in
  Alcotest.(check string) "oldest aged out of must" "NC"
    (Analysis.Must_may.classification_name (Analysis.Must_may.classify a 0))

let test_other_set_untouched () =
  let a = Analysis.Must_may.unknown cache_cfg in
  let a = Analysis.Must_may.access a 4 in   (* set 1 *)
  let a = Analysis.Must_may.access a 0 in
  let a = Analysis.Must_may.access a 8 in
  let a = Analysis.Must_may.access a 16 in  (* set 0 churn *)
  Alcotest.(check string) "set-1 guarantee survives set-0 churn" "AH"
    (Analysis.Must_may.classification_name (Analysis.Must_may.classify a 4))

let test_unknown_access_ages_everything () =
  let a = Analysis.Must_may.unknown cache_cfg in
  let a = Analysis.Must_may.access a 0 in
  let a = Analysis.Must_may.access_unknown a in
  Alcotest.(check string) "still guaranteed (one unknown access)" "AH"
    (Analysis.Must_may.classification_name (Analysis.Must_may.classify a 0));
  let a = Analysis.Must_may.access_unknown a in
  Alcotest.(check string) "aged out by repeated unknown accesses" "NC"
    (Analysis.Must_may.classification_name (Analysis.Must_may.classify a 0))

let test_join_keeps_common_guarantees () =
  let base = Analysis.Must_may.unknown cache_cfg in
  let left = Analysis.Must_may.access (Analysis.Must_may.access base 0) 4 in
  let right = Analysis.Must_may.access (Analysis.Must_may.access base 8) 4 in
  let joined = Analysis.Must_may.join left right in
  Alcotest.(check string) "common block survives the join" "AH"
    (Analysis.Must_may.classification_name (Analysis.Must_may.classify joined 4));
  Alcotest.(check string) "one-sided block does not" "NC"
    (Analysis.Must_may.classification_name (Analysis.Must_may.classify joined 0))

let test_non_lru_rejected () =
  Alcotest.(check bool) "FIFO rejected" true
    (try
       ignore
         (Analysis.Must_may.unknown
            { cache_cfg with Cache.Set_assoc.kind = Cache.Policy.Fifo });
       false
     with Invalid_argument _ -> true)

let test_restrict_drops_oldest_guarantees () =
  let a = Analysis.Must_may.unknown cache_cfg in
  let a = Analysis.Must_may.access a 0 in   (* set 0, now age 1 *)
  let a = Analysis.Must_may.access a 8 in   (* set 0, age 0 *)
  let restricted = Analysis.Must_may.restrict a ~max_tracked:1 in
  Alcotest.(check string) "youngest kept" "AH"
    (Analysis.Must_may.classification_name
       (Analysis.Must_may.classify restricted 8));
  Alcotest.(check string) "older dropped" "NC"
    (Analysis.Must_may.classification_name
       (Analysis.Must_may.classify restricted 0))

let test_restrict_is_per_set () =
  let a = Analysis.Must_may.unknown cache_cfg in
  let a = Analysis.Must_may.access a 0 in   (* set 0 *)
  let a = Analysis.Must_may.access a 4 in   (* set 1 *)
  let restricted = Analysis.Must_may.restrict a ~max_tracked:1 in
  Alcotest.(check int) "one block per set kept" 2
    (List.length (Analysis.Must_may.must_resident_blocks restricted))

let test_restrict_zero_budget () =
  let a = Analysis.Must_may.access (Analysis.Must_may.unknown cache_cfg) 0 in
  let restricted = Analysis.Must_may.restrict a ~max_tracked:0 in
  Alcotest.(check (list int)) "nothing tracked" []
    (Analysis.Must_may.must_resident_blocks restricted)

(* Soundness: when the analysis says AH, a concrete LRU cache hits from any
   warmed initial state; when it says AM from a cold start, the concrete cold
   cache misses. *)
let prop_must_sound =
  QCheck.Test.make ~name:"must analysis sound wrt concrete LRU" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 30) (int_range 0 7))
    (fun blocks ->
       let addrs = List.map (fun b -> b * 4) blocks in
       let initial_states =
         Cache.Set_assoc.state_samples cache_cfg
           ~universe:(List.init 8 (fun i -> i * 4)) ~count:4 ~seed:77
       in
       List.for_all
         (fun initial ->
            let ok, _, _ =
              List.fold_left
                (fun (ok, abstract, concrete) addr ->
                   let classification = Analysis.Must_may.classify abstract addr in
                   let hit, concrete = Cache.Set_assoc.access concrete addr in
                   let abstract = Analysis.Must_may.access abstract addr in
                   let sound =
                     match classification with
                     | Analysis.Must_may.Always_hit -> hit
                     | Analysis.Must_may.Always_miss | Analysis.Must_may.Unclassified ->
                       true
                   in
                   (ok && sound, abstract, concrete))
                (true, Analysis.Must_may.unknown cache_cfg, initial)
                addrs
            in
            ok)
         initial_states)

let prop_may_sound_cold =
  QCheck.Test.make ~name:"may analysis (cold) sound: AM implies concrete miss"
    ~count:200
    QCheck.(list_of_size (Gen.int_range 1 30) (int_range 0 7))
    (fun blocks ->
       let addrs = List.map (fun b -> b * 4) blocks in
       let ok, _, _ =
         List.fold_left
           (fun (ok, abstract, concrete) addr ->
              let classification = Analysis.Must_may.classify abstract addr in
              let hit, concrete = Cache.Set_assoc.access concrete addr in
              let abstract = Analysis.Must_may.access abstract addr in
              let sound =
                match classification with
                | Analysis.Must_may.Always_miss -> not hit
                | Analysis.Must_may.Always_hit -> hit
                | Analysis.Must_may.Unclassified -> true
              in
              (ok && sound, abstract, concrete))
           (true, Analysis.Must_may.cold cache_cfg, Cache.Set_assoc.make cache_cfg)
           addrs
       in
       ok)

(* --- WCET bounds ----------------------------------------------------------- *)

let flat_config =
  { Analysis.Wcet.icache = Analysis.Wcet.Flat_fetch 1;
    dmem = Analysis.Wcet.Flat_data 1;
    unroll = false; budget = None }

let bound_of kind config w =
  let _, shapes = Isa.Workload.program w in
  (Analysis.Wcet.bound config kind ~shapes ~entry:"main").Analysis.Wcet.bound

let exhaustive_times w =
  let p, _ = Isa.Workload.program w in
  let machine = Pipeline.Inorder.state () in
  List.map (fun input -> Pipeline.Inorder.time p machine input)
    w.Isa.Workload.inputs

let check_brackets name w =
  let times = exhaustive_times w in
  let ub = bound_of Analysis.Wcet.Upper flat_config w in
  let lb = bound_of Analysis.Wcet.Lower flat_config w in
  let wcet = Prelude.Stats.max_int_list times in
  let bcet = Prelude.Stats.min_int_list times in
  Alcotest.(check bool) (name ^ ": UB covers WCET") true (ub >= wcet);
  Alcotest.(check bool) (name ^ ": LB under BCET") true (lb <= bcet)

let test_wcet_brackets_flat () =
  check_brackets "crc" (Isa.Workload.crc ~bits:6);
  check_brackets "max_array" (Isa.Workload.max_array ~n:6);
  check_brackets "clamp" (Isa.Workload.clamp ());
  check_brackets "bsearch" (Isa.Workload.bsearch ~n:8);
  check_brackets "bubble_sort" (Isa.Workload.bubble_sort ~n:4);
  check_brackets "fir" (Isa.Workload.fir ~taps:2 ~samples:2);
  check_brackets "insertion_sort" (Isa.Workload.insertion_sort ~n:4);
  check_brackets "vector_dot" (Isa.Workload.vector_dot ~n:4);
  check_brackets "popcount" (Isa.Workload.popcount ~bits:6);
  check_brackets "fibonacci" (Isa.Workload.fibonacci ~n:8);
  check_brackets "state_machine" (Isa.Workload.state_machine ~steps:5)

let test_wcet_brackets_cached () =
  let w = Isa.Workload.crc ~bits:6 in
  let p, shapes = Isa.Workload.program w in
  let config =
    { Analysis.Wcet.icache =
        Analysis.Wcet.Cached_fetch
          { config = Predictability.Harness.icache_config;
            hit = Predictability.Harness.icache_hit;
            miss = Predictability.Harness.icache_miss };
      dmem =
        Analysis.Wcet.Range_data
          { best = Predictability.Harness.dcache_hit;
            worst = Predictability.Harness.dcache_miss };
      unroll = true; budget = None }
  in
  let ub = (Analysis.Wcet.bound config Analysis.Wcet.Upper ~shapes ~entry:"main").Analysis.Wcet.bound in
  let lb = (Analysis.Wcet.bound { config with unroll = false } Analysis.Wcet.Lower ~shapes ~entry:"main").Analysis.Wcet.bound in
  let states = Predictability.Harness.inorder_states p w in
  let times =
    List.concat_map
      (fun q -> List.map (fun i -> Pipeline.Inorder.time p q i) w.Isa.Workload.inputs)
      states
  in
  Alcotest.(check bool) "UB covers exhaustive WCET" true
    (ub >= Prelude.Stats.max_int_list times);
  Alcotest.(check bool) "LB under exhaustive BCET" true
    (lb <= Prelude.Stats.min_int_list times)

let test_budgeted_ub_sound_and_monotone () =
  let w = Isa.Workload.fir ~taps:2 ~samples:3 in
  let cached budget =
    { Analysis.Wcet.icache =
        Analysis.Wcet.Cached_fetch
          { config = Predictability.Harness.icache_config; hit = 1; miss = 8 };
      dmem = Analysis.Wcet.Flat_data 1;
      unroll = true; budget }
  in
  let ub budget = bound_of Analysis.Wcet.Upper (cached budget) w in
  let times = exhaustive_times w in
  let wcet = Prelude.Stats.max_int_list times in
  let bounds = List.map ub [ Some 0; Some 1; Some 2; None ] in
  List.iter
    (fun b -> Alcotest.(check bool) "budgeted bound sound" true (b >= wcet))
    bounds;
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a >= b && decreasing rest
    | [] | [ _ ] -> true
  in
  Alcotest.(check bool) "bounds tighten with budget" true (decreasing bounds)

let test_unroll_tightens () =
  let w = Isa.Workload.fir ~taps:2 ~samples:3 in
  let cached unroll =
    { Analysis.Wcet.icache =
        Analysis.Wcet.Cached_fetch
          { config = Predictability.Harness.icache_config; hit = 1; miss = 8 };
      dmem = Analysis.Wcet.Flat_data 1;
      unroll; budget = None }
  in
  let plain = bound_of Analysis.Wcet.Upper (cached false) w in
  let unrolled = bound_of Analysis.Wcet.Upper (cached true) w in
  Alcotest.(check bool)
    (Printf.sprintf "unrolled UB (%d) <= plain UB (%d)" unrolled plain)
    true (unrolled <= plain)

let test_lower_below_upper () =
  List.iter
    (fun w ->
       let ub = bound_of Analysis.Wcet.Upper flat_config w in
       let lb = bound_of Analysis.Wcet.Lower flat_config w in
       Alcotest.(check bool) (w.Isa.Workload.name ^ ": LB <= UB") true (lb <= ub))
    [ Isa.Workload.crc ~bits:5; Isa.Workload.bsearch ~n:8;
      Isa.Workload.bubble_sort ~n:3; Isa.Workload.call_chain ~calls:2 ~rounds:2 ]

let test_recursion_rejected () =
  (* Build a recursive program directly at the shape level via Ast.compile:
     f calls g calls f. *)
  let f =
    { Isa.Ast.name = "f"; body = Isa.Ast.Call "g" }
  in
  let g =
    { Isa.Ast.name = "g"; body = Isa.Ast.Call "f" }
  in
  let main = { Isa.Ast.name = "main"; body = Isa.Ast.Call "f" } in
  let _, shapes = Isa.Ast.compile [ main; f; g ] in
  Alcotest.(check bool) "recursion raises Unsupported" true
    (try
       ignore (Analysis.Wcet.bound flat_config Analysis.Wcet.Upper ~shapes ~entry:"main");
       false
     with Analysis.Wcet.Unsupported _ -> true)

let test_classified_fraction () =
  let w = Isa.Workload.crc ~bits:6 in
  let _, shapes = Isa.Workload.program w in
  let config =
    { Analysis.Wcet.icache =
        Analysis.Wcet.Cached_fetch
          { config = Predictability.Harness.icache_config; hit = 1; miss = 8 };
      dmem = Analysis.Wcet.Flat_data 1;
      unroll = true; budget = None }
  in
  let result = Analysis.Wcet.bound config Analysis.Wcet.Upper ~shapes ~entry:"main" in
  let fraction =
    match Analysis.Wcet.classified_fraction result with
    | Some f -> f
    | None -> Alcotest.fail "cached walk produced no fetch observations"
  in
  Alcotest.(check bool) "some accesses classified" true (fraction > 0.0);
  Alcotest.(check bool) "fraction within [0,1]" true (fraction <= 1.0);
  (* A flat-fetch walk records no fetch observations: the fraction must be
     None, not a vacuous 1.0. *)
  let flat = Analysis.Wcet.bound flat_config Analysis.Wcet.Upper ~shapes ~entry:"main" in
  Alcotest.(check bool) "flat fetch yields no fraction" true
    (Analysis.Wcet.classified_fraction flat = None)

(* --- Generated programs ------------------------------------------------- *)

let prop_ub_sound_on_random_programs =
  QCheck.Test.make ~name:"UB/LB bracket execution on random structured programs"
    ~count:120 Gen_workload.arbitrary
    (fun w ->
       let times = exhaustive_times w in
       let ub = bound_of Analysis.Wcet.Upper flat_config w in
       let lb = bound_of Analysis.Wcet.Lower flat_config w in
       List.for_all (fun t -> lb <= t && t <= ub) times)

(* --- Site-filtered walks ------------------------------------------------- *)

let test_site_filter_identity_and_empty () =
  let w = Isa.Workload.find "clamp" in
  let _, shapes = Isa.Workload.program w in
  let bound ?site_filter kind =
    (Analysis.Wcet.bound ?site_filter flat_config kind ~shapes ~entry:"main")
      .Analysis.Wcet.bound
  in
  List.iter
    (fun kind ->
       Alcotest.(check int) "all-true filter is the plain walk"
         (bound kind)
         (bound ~site_filter:(fun _ -> true) kind);
       Alcotest.(check int) "all-false filter charges nothing" 0
         (bound ~site_filter:(fun _ -> false) kind))
    [ Analysis.Wcet.Upper; Analysis.Wcet.Lower ]

(* --- Certificates -------------------------------------------------------- *)

let flat_cert w = Analysis.Certify.certify Predictability.Certifier.flat_machine w
let cached_cert w =
  Analysis.Certify.certify Predictability.Certifier.cached_machine w

let test_certify_invariant_workload () =
  let c = flat_cert (Isa.Workload.find "fibonacci") in
  Alcotest.(check string) "fibonacci is flat-invariant" "invariant"
    (Analysis.Certify.verdict_name c.Analysis.Certify.verdict);
  Alcotest.(check int) "invariant means zero spread" 0
    c.Analysis.Certify.spread_ub;
  Alcotest.(check int) "and zero varying sites" 0
    c.Analysis.Certify.varying_sites;
  Alcotest.(check bool) "lb <= ub" true
    (c.Analysis.Certify.lb <= c.Analysis.Certify.ub)

let test_certify_bounded_workload () =
  let c = flat_cert (Isa.Workload.find "clamp") in
  Alcotest.(check string) "clamp is bounded" "bounded"
    (Analysis.Certify.verdict_name c.Analysis.Certify.verdict);
  Alcotest.(check int) "both comparisons leak" 2
    (List.length c.Analysis.Certify.leaks);
  Alcotest.(check bool) "spread bound within the full bracket" true
    (c.Analysis.Certify.spread_ub
     <= c.Analysis.Certify.ub - c.Analysis.Certify.lb)

let test_certify_state_channels () =
  let flat = flat_cert (Isa.Workload.find "fibonacci") in
  Alcotest.(check bool) "flat machine has no state channels" true
    (flat.Analysis.Certify.state_channels = []);
  let cached = cached_cert (Isa.Workload.find "fibonacci") in
  Alcotest.(check string) "unknown initial cache forces bounded" "bounded"
    (Analysis.Certify.verdict_name cached.Analysis.Certify.verdict);
  Alcotest.(check bool) "icache channel reported" true
    (List.mem Analysis.Certify.Icache cached.Analysis.Certify.state_channels)

let test_certify_machine_relative_leaks () =
  (* Address leaks only matter under a data cache: insertion_sort's
     secret-indexed loads count on the cached machine, not on flat. *)
  let has_address (c : Analysis.Certify.certificate) =
    List.exists
      (fun (l : Dataflow.Taint.leak) ->
         l.Dataflow.Taint.channel = Dataflow.Taint.Address)
      c.Analysis.Certify.leaks
  in
  let w = Isa.Workload.find "insertion_sort" in
  Alcotest.(check bool) "flat drops address leaks" false
    (has_address (flat_cert w));
  Alcotest.(check bool) "cached keeps them" true
    (has_address (cached_cert w))

(* A certificate's claims on the observed times: the bracket, the spread
   bound, and one time under an Invariant verdict. Certification is sound
   one way only: an invariant program may still be certified Bounded. *)
let certificate_contains (c : Analysis.Certify.certificate) times =
  let bcet = Prelude.Stats.min_int_list times
  and wcet = Prelude.Stats.max_int_list times in
  [ (Printf.sprintf "lb %d <= BCET %d" c.Analysis.Certify.lb bcet,
     c.Analysis.Certify.lb <= bcet);
    (Printf.sprintf "WCET %d <= ub %d" wcet c.Analysis.Certify.ub,
     wcet <= c.Analysis.Certify.ub);
    (Printf.sprintf "spread %d <= spread_ub %d" (wcet - bcet)
       c.Analysis.Certify.spread_ub,
     wcet - bcet <= c.Analysis.Certify.spread_ub);
    (Printf.sprintf "%s verdict, BCET %d, WCET %d"
       (Analysis.Certify.verdict_name c.Analysis.Certify.verdict) bcet wcet,
     c.Analysis.Certify.verdict <> Analysis.Certify.Invariant || bcet = wcet)
  ]

(* Every time of the cached machine's space: Harness.inorder_states x the
   workload's inputs, on the interpreter. *)
let cached_times w =
  let p, _ = Isa.Workload.program w in
  List.concat_map
    (fun q -> List.map (Pipeline.Inorder.time p q) w.Isa.Workload.inputs)
    (Predictability.Harness.inorder_states p w)

(* Both standard machines, each over its own observation space: the flat
   machine over the inputs, the cached one over Harness.inorder_states. *)
let certificate_claims w =
  List.concat_map
    (fun (c, times) ->
       List.map
         (fun (claim, holds) -> (c.Analysis.Certify.machine ^ ": " ^ claim, holds))
         (certificate_contains c times))
    [ (flat_cert w, exhaustive_times w); (cached_cert w, cached_times w) ]

let prop_certificates_hold_on_generated =
  QCheck.Test.make
    ~name:"certificates hold on generated observations"
    ~count:150 Gen_workload.arbitrary
    (fun w -> List.for_all snd (certificate_claims w))

let test_certify_call_in_both_arms () =
  List.iter
    (fun (claim, holds) -> Alcotest.(check bool) claim true holds)
    (certificate_claims Gen_workload.call_in_both_arms)

(* --- Misprediction bounds ---------------------------------------------------- *)

let test_sites_structure () =
  let w = Isa.Workload.crc ~bits:6 in
  let _, shapes = Isa.Workload.program w in
  let sites = Analysis.Mispredict.sites ~shapes ~entry:"main" in
  let latches =
    List.filter (fun s -> s.Analysis.Mispredict.kind = Analysis.Mispredict.Loop_latch)
      sites
  in
  let ifs =
    List.filter (fun s -> s.Analysis.Mispredict.kind = Analysis.Mispredict.If_branch)
      sites
  in
  Alcotest.(check int) "one loop latch" 1 (List.length latches);
  Alcotest.(check int) "one if branch" 1 (List.length ifs);
  (match latches with
   | [ latch ] ->
     Alcotest.(check int) "latch executes count times" 6
       latch.Analysis.Mispredict.executions;
     Alcotest.(check bool) "latch is backward" true latch.Analysis.Mispredict.backward
   | _ -> Alcotest.fail "expected one latch");
  (match ifs with
   | [ branch ] ->
     Alcotest.(check int) "if executes once per iteration" 6
       branch.Analysis.Mispredict.executions
   | _ -> Alcotest.fail "expected one if")

let test_site_multiplication () =
  (* Nested loops multiply execution counts. *)
  let w = Isa.Workload.bubble_sort ~n:4 in
  let _, shapes = Isa.Workload.program w in
  let sites = Analysis.Mispredict.sites ~shapes ~entry:"main" in
  let inner_if =
    List.find
      (fun s -> s.Analysis.Mispredict.kind = Analysis.Mispredict.If_branch)
      sites
  in
  Alcotest.(check int) "if inside 3x3 loops" 9 inner_if.Analysis.Mispredict.executions

let test_bounds_cover_observations () =
  List.iter
    (fun w ->
       let p, shapes = Isa.Workload.program w in
       let sites = Analysis.Mispredict.sites ~shapes ~entry:"main" in
       List.iter
         (fun scheme ->
            let bound = Analysis.Mispredict.static_bound scheme sites in
            let predictor = Branchpred.Predictor.static scheme in
            List.iter
              (fun input ->
                 let observed =
                   Analysis.Mispredict.observed predictor p (Isa.Exec.run p input)
                 in
                 Alcotest.(check bool)
                   (Printf.sprintf "%s: %d <= %d" w.Isa.Workload.name observed bound)
                   true (observed <= bound))
              w.Isa.Workload.inputs)
         [ Branchpred.Predictor.Always_not_taken; Branchpred.Predictor.Always_taken;
           Branchpred.Predictor.Btfn ])
    [ Isa.Workload.crc ~bits:5; Isa.Workload.branchy ~n:6;
      Isa.Workload.bsearch ~n:8; Isa.Workload.max_array ~n:5 ]

let test_dynamic_bound_is_execution_count () =
  let w = Isa.Workload.branchy ~n:6 in
  let _, shapes = Isa.Workload.program w in
  let sites = Analysis.Mispredict.sites ~shapes ~entry:"main" in
  Alcotest.(check int) "sum of executions"
    (Prelude.Listx.sum (List.map (fun s -> s.Analysis.Mispredict.executions) sites))
    (Analysis.Mispredict.dynamic_bound sites)

let () =
  Alcotest.run "analysis"
    [ ("must_may",
       [ Alcotest.test_case "hit after access" `Quick test_must_hit_after_access;
         Alcotest.test_case "cold cache AM" `Quick test_cold_always_miss;
         Alcotest.test_case "aging evicts guarantees" `Quick
           test_must_eviction_by_aging;
         Alcotest.test_case "set isolation" `Quick test_other_set_untouched;
         Alcotest.test_case "unknown-address damage" `Quick
           test_unknown_access_ages_everything;
         Alcotest.test_case "join" `Quick test_join_keeps_common_guarantees;
         Alcotest.test_case "non-LRU rejected" `Quick test_non_lru_rejected;
         Alcotest.test_case "restrict keeps youngest" `Quick
           test_restrict_drops_oldest_guarantees;
         Alcotest.test_case "restrict is per-set" `Quick test_restrict_is_per_set;
         Alcotest.test_case "restrict zero budget" `Quick test_restrict_zero_budget;
         Alcotest.test_case "budgeted UB sound and monotone" `Quick
           test_budgeted_ub_sound_and_monotone;
         QCheck_alcotest.to_alcotest prop_must_sound;
         QCheck_alcotest.to_alcotest prop_may_sound_cold ]);
      ("wcet",
       [ Alcotest.test_case "brackets (flat memory)" `Quick test_wcet_brackets_flat;
         Alcotest.test_case "brackets (cached)" `Quick test_wcet_brackets_cached;
         Alcotest.test_case "unrolling tightens" `Quick test_unroll_tightens;
         Alcotest.test_case "LB <= UB" `Quick test_lower_below_upper;
         Alcotest.test_case "recursion rejected" `Quick test_recursion_rejected;
         Alcotest.test_case "classification fraction" `Quick
           test_classified_fraction;
         Alcotest.test_case "site filter identity/empty" `Quick
           test_site_filter_identity_and_empty;
         QCheck_alcotest.to_alcotest prop_ub_sound_on_random_programs ]);
      ("certify",
       [ Alcotest.test_case "invariant workload" `Quick
           test_certify_invariant_workload;
         Alcotest.test_case "bounded workload" `Quick
           test_certify_bounded_workload;
         Alcotest.test_case "state channels" `Quick
           test_certify_state_channels;
         Alcotest.test_case "machine-relative leaks" `Quick
           test_certify_machine_relative_leaks;
         Alcotest.test_case "call in both arms" `Quick
           test_certify_call_in_both_arms;
         QCheck_alcotest.to_alcotest prop_certificates_hold_on_generated ]);
      ("mispredict",
       [ Alcotest.test_case "site structure" `Quick test_sites_structure;
         Alcotest.test_case "nested multiplication" `Quick test_site_multiplication;
         Alcotest.test_case "bounds cover observations" `Quick
           test_bounds_cover_observations;
         Alcotest.test_case "dynamic bound" `Quick
           test_dynamic_bound_is_execution_count ]) ]
