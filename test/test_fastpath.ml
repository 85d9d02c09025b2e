(* Tests for the fast-path T_p(q,i) engine: packed replay equivalence at
   every layer (policy sets, caches, predictors), engine-vs-interpreter
   bit-identity, memo-table behaviour, scratch lifetime (dropped engines
   and the states they replayed are all collected), and cross-jobs
   determinism. *)

(* --- Packed replay vs persistent structures ------------------------------ *)

let cache_config_gen =
  QCheck.Gen.(
    let* kind =
      oneofl
        [ Cache.Policy.Lru; Cache.Policy.Fifo; Cache.Policy.Plru;
          Cache.Policy.Mru; Cache.Policy.Round_robin ]
    in
    let* sets = oneofl [ 1; 2; 4 ] in
    let* ways =
      match kind with
      | Cache.Policy.Plru -> oneofl [ 1; 2; 4 ]
      | _ -> int_range 1 4
    in
    let* line = oneofl [ 1; 2; 16 ] in
    return { Cache.Set_assoc.sets; ways; line; kind })

let replay_vs_access_case =
  QCheck.Gen.(
    let* config = cache_config_gen in
    let* touches = int_range 0 24 in
    let* seed = int_range 0 10_000 in
    let* addrs = list_size (int_range 0 60) (int_range 0 255) in
    return (config, touches, seed, addrs))

let prop_set_assoc_replay_matches_access =
  QCheck.Test.make ~count:500
    ~name:"Set_assoc.replay_access = access (all kinds)"
    (QCheck.make replay_vs_access_case)
    (fun (config, touches, seed, addrs) ->
       let universe = List.init 32 (fun i -> i * 3) in
       let start = Cache.Set_assoc.warmed config ~seed ~touches ~universe in
       let rep = Cache.Set_assoc.replay start in
       let _, _, _ =
         List.fold_left
           (fun (c, k, ()) addr ->
              let hit, c' = Cache.Set_assoc.access c addr in
              let hit' = Cache.Set_assoc.replay_access rep addr in
              if hit <> hit' then
                QCheck.Test.fail_reportf
                  "hit mismatch at access %d (addr %d): %b vs %b" k addr hit
                  hit';
              (c', k + 1, ()))
           (start, 0, ()) addrs
       in
       true)

(* Random single-set states of every kind: warmed from empty (full or
   partly empty), or drawn from the full-state enumeration, which also
   reaches metadata patterns no short warm-up produces. *)
let policy_step_case =
  QCheck.Gen.(
    let* kind = oneofl Cache.Policy.all_kinds in
    let* ways =
      match kind with
      | Cache.Policy.Plru -> oneofl [ 1; 2; 4 ]
      | _ -> int_range 1 4
    in
    let* warm = list_size (int_range 0 12) (int_range 0 7) in
    let* enumerated = bool in
    let* pick = int_range 0 10_000 in
    let* tags = list_size (int_range 1 30) (int_range 0 7) in
    let start =
      if enumerated then
        let states =
          Cache.Policy.enumerate_full_states kind ~ways
            ~blocks:(List.init 6 Fun.id)
        in
        List.nth states (pick mod List.length states)
      else
        List.fold_left
          (fun s tag -> snd (Cache.Policy.access s tag))
          (Cache.Policy.init kind ~ways) warm
    in
    return (start, tags))

let prop_packed_step_matches_access =
  QCheck.Test.make ~count:1000
    ~name:"Policy.packed_step = pack of access (all kinds)"
    (QCheck.make
       ~print:(fun (s, tags) ->
           Format.asprintf "%a then %s" Cache.Policy.pp s
             (String.concat " " (List.map string_of_int tags)))
       policy_step_case)
    (fun (start, tags) ->
       let kind = Cache.Policy.kind start and ways = Cache.Policy.ways start in
       let width = Cache.Policy.meta_width kind ~ways in
       let words s = List.tl (List.tl (Cache.Policy.pack s)) in
       let packed = Array.of_list (words start) in
       let slots = Array.sub packed 0 ways in
       let meta = Array.sub packed ways width in
       ignore
         (List.fold_left
            (fun s tag ->
               let hit, s' = Cache.Policy.access s tag in
               let hit' =
                 Cache.Policy.packed_step kind ~slots ~base:0 ~ways ~meta
                   ~mbase:0 tag
               in
               if hit <> hit' then
                 QCheck.Test.fail_reportf "%a: hit %b vs %b on tag %d"
                   Cache.Policy.pp s hit hit' tag;
               if Array.to_list slots @ Array.to_list meta <> words s' then
                 QCheck.Test.fail_reportf "%a: tag %d leaves a different state"
                   Cache.Policy.pp s tag;
               s')
            start tags);
       true)

let predictor_pool =
  [ Branchpred.Predictor.static Branchpred.Predictor.Btfn;
    Branchpred.Predictor.static Branchpred.Predictor.Always_taken;
    Branchpred.Predictor.static
      (Branchpred.Predictor.Per_branch [ (2, true); (5, false) ]);
    Branchpred.Predictor.one_bit ~entries:8 ~init:0;
    Branchpred.Predictor.one_bit ~entries:4 ~init:0x51ed;
    Branchpred.Predictor.two_bit ~entries:8 ~init:1;
    Branchpred.Predictor.two_bit ~entries:16 ~init:0xbeef;
    Branchpred.Predictor.gshare ~entries:16 ~history_bits:4 ~init:0x1234 ]

let branch_events_gen =
  QCheck.Gen.(
    list_size (int_range 0 40)
      (let* pc = int_range 0 30 in
       let* backward = bool in
       let* taken = bool in
       return { Branchpred.Predictor.pc; backward; taken }))

let prop_predictor_replay_matches_update =
  QCheck.Test.make ~count:500
    ~name:"Predictor.replay_correct = predict/update"
    (QCheck.make
       QCheck.Gen.(
         let* which = int_range 0 (List.length predictor_pool - 1) in
         let* events = branch_events_gen in
         return (which, events)))
    (fun (which, events) ->
       let p0 = List.nth predictor_pool which in
       let rep = Branchpred.Predictor.replay p0 in
       let _ =
         List.fold_left
           (fun p ev ->
              let correct =
                Branchpred.Predictor.predict p ev = ev.Branchpred.Predictor.taken
              in
              let correct' = Branchpred.Predictor.replay_correct rep ev in
              if correct <> correct' then
                QCheck.Test.fail_reportf "correctness mismatch at %d"
                  ev.Branchpred.Predictor.pc;
              Branchpred.Predictor.update p ev)
           p0 events
       in
       true)

let test_policy_pack_injective () =
  List.iter
    (fun kind ->
       let ways = if kind = Cache.Policy.Plru then 4 else 3 in
       let states =
         Cache.Policy.enumerate_full_states kind ~ways ~blocks:[ 1; 2; 3; 4 ]
       in
       let keys = List.map Cache.Policy.pack states in
       let distinct = Prelude.Listx.uniq Stdlib.compare keys in
       Alcotest.(check int)
         (Cache.Policy.kind_name kind ^ " pack is injective")
         (List.length states) (List.length distinct))
    Cache.Policy.all_kinds

(* --- Engine vs interpreter ----------------------------------------------- *)

let take = Prelude.Listx.take

let engine_matches_interpreter ?predictor name =
  let w = Isa.Workload.find name in
  let program, _ = Isa.Workload.program w in
  let states = Predictability.Harness.inorder_states ?predictor program w in
  let inputs = take 8 w.Isa.Workload.inputs in
  let eng = Fastpath.Engine.create program in
  List.iteri
    (fun qi q ->
       List.iteri
         (fun ii i ->
            let exact = Pipeline.Inorder.time program q i in
            let fast = Fastpath.Engine.time eng q i in
            if exact <> fast then
              Alcotest.failf "%s: cell (%d,%d): exact %d fast %d" name qi ii
                exact fast;
            (* Second call answers from the memo table; must agree. *)
            let again = Fastpath.Engine.time eng q i in
            if again <> fast then
              Alcotest.failf "%s: memo hit differs at (%d,%d)" name qi ii)
         inputs)
    states

let test_engine_vs_interpreter_default () =
  List.iter engine_matches_interpreter
    [ "bubble_sort"; "crc"; "state_machine"; "call_chain" ]

let test_engine_vs_interpreter_dynamic_predictor () =
  let predictor = Branchpred.Predictor.two_bit ~entries:16 ~init:0x51ed in
  List.iter
    (engine_matches_interpreter ~predictor)
    [ "branchy"; "insertion_sort" ]

(* Stateless levels ([Flat], [Spm]) take the [Lpure] arm of the replay's
   level cost. On bubble_sort they are checked in three memory systems, one
   beside a cached dmem; on every registry workload, over all its inputs,
   the perfect-memory machine is checked through a grid, as DEF.CERT's
   flat matrix evaluates it. *)
let test_engine_stateless_levels () =
  let w = Isa.Workload.find "bubble_sort" in
  let program, _ = Isa.Workload.program w in
  let inputs = take 8 w.Isa.Workload.inputs in
  let dcache =
    Cache.Set_assoc.warmed Predictability.Harness.dcache_config ~seed:7
      ~touches:12
      ~universe:(List.init 16 (fun i -> 1000 + i))
  in
  let mems =
    [ Pipeline.Mem_system.perfect;
      { Pipeline.Mem_system.imem = Pipeline.Mem_system.Flat 2;
        dmem = Pipeline.Mem_system.Flat 5 };
      { Pipeline.Mem_system.imem =
          Pipeline.Mem_system.Spm
            { spm = Cache.Scratchpad.make ~base:0 ~size:64; hit = 1; backing = 9 };
        dmem =
          Pipeline.Mem_system.Cached
            { cache = dcache; hit = Predictability.Harness.dcache_hit;
              miss = Predictability.Harness.dcache_miss } } ]
  in
  let eng = Fastpath.Engine.create program in
  List.iter
    (fun mem ->
       let q = Pipeline.Inorder.state ~mem () in
       List.iter
         (fun i ->
            Alcotest.(check int) "stateless level agrees"
              (Pipeline.Inorder.time program q i)
              (Fastpath.Engine.time eng q i))
         inputs)
    mems;
  let q = Pipeline.Inorder.state () in
  List.iter
    (fun (name, make) ->
       let w : Isa.Workload.t = make () in
       let program, _ = Isa.Workload.program w in
       let inputs = Array.of_list w.Isa.Workload.inputs in
       let cell =
         Fastpath.Engine.grid (Fastpath.Engine.create program) [| q |] inputs
       in
       Array.iteri
         (fun i input ->
            let exact = Pipeline.Inorder.time program q input in
            let fast = cell 0 i in
            if fast <> exact then
              Alcotest.failf "%s: flat cell %d: exact %d grid %d" name i
                exact fast)
         inputs)
    Isa.Workload.registry

(* --- Grid vs interpreter ------------------------------------------------- *)

(* A registry workload's standard space, as the sampler and the daemon see
   it: the default uncertainty set and at most Sampled.input_cap inputs. *)
let standard_space (name, make) =
  let w : Isa.Workload.t = make () in
  let program, _ = Isa.Workload.program w in
  let inputs = take Predictability.Sampled.input_cap w.Isa.Workload.inputs in
  ( name,
    program,
    Array.of_list (Predictability.Harness.inorder_states program w),
    Array.of_list inputs )

(* Every cell twice, each pass in its own seeded random order, so
   consecutive cells change state and input as the sampler's draws do and,
   with the memo on, the second pass answers from it. *)
let shuffled_cells seed states inputs =
  let rng = Prelude.Rng.make seed in
  let cells =
    List.concat
      (List.init (Array.length states) (fun q ->
           List.init (Array.length inputs) (fun i -> (q, i))))
  in
  Array.of_list (Prelude.Rng.shuffle rng cells @ Prelude.Rng.shuffle rng cells)

(* Each workload's grid runs interleaved, cell by cell, with a second
   engine's grid over the next workload's program and inputs but the same
   state array. The domain's scratch slot then changes owner between cells
   and sees the same physical states under both engines. *)
let test_grid_vs_interpreter () =
  let spaces = Array.of_list (List.map standard_space Isa.Workload.registry) in
  let n = Array.length spaces in
  Array.iteri
    (fun k (name, program, states, inputs) ->
       let next, next_program, _, next_inputs = spaces.((k + 1) mod n) in
       let grids =
         List.map
           (fun (name, program, inputs) ->
              let exact =
                Array.map
                  (fun q -> Array.map (Pipeline.Inorder.time program q) inputs)
                  states
              in
              (name, program, inputs, exact))
           [ (name, program, inputs); (next, next_program, next_inputs) ]
       in
       List.iter
         (fun memo ->
            let sweeps =
              List.mapi
                (fun j (name, program, inputs, exact) ->
                   let cell =
                     Fastpath.Engine.grid (Fastpath.Engine.create ~memo program)
                       states inputs
                   in
                   let order = shuffled_cells ((2 * k) + j) states inputs in
                   (name, cell, exact, order))
                grids
            in
            let steps =
              List.fold_left
                (fun m (_, _, _, order) -> max m (Array.length order))
                0 sweeps
            in
            for step = 0 to steps - 1 do
              List.iter
                (fun (name, cell, exact, order) ->
                   if step < Array.length order then begin
                     let q, i = order.(step) in
                     let fast = cell q i in
                     if fast <> exact.(q).(i) then
                       Alcotest.failf
                         "%s (memo %b): cell (%d,%d): exact %d grid %d" name
                         memo q i exact.(q).(i) fast
                   end)
                sweeps
            done)
         [ true; false ])
    spaces

(* --- Memo table ---------------------------------------------------------- *)

let test_memo_hit_miss_counting () =
  let w = Isa.Workload.find "fir" in
  let program, _ = Isa.Workload.program w in
  let states = Predictability.Harness.inorder_states program w in
  let inputs = Array.of_list (take 6 w.Isa.Workload.inputs) in
  let eng = Fastpath.Engine.create ~memo:true program in
  let cell = Fastpath.Engine.grid eng (Array.of_list states) inputs in
  let row () = Array.init (Array.length inputs) (cell 0) in
  let before = Prelude.Instrument.snapshot () in
  let r1 = row () in
  let mid = Prelude.Instrument.snapshot () in
  let r2 = row () in
  let after = Prelude.Instrument.snapshot () in
  Alcotest.(check bool) "rows agree" true (r1 = r2);
  Alcotest.(check int) "first pass: all misses" (Array.length inputs)
    (mid.Prelude.Instrument.memo_misses - before.Prelude.Instrument.memo_misses);
  Alcotest.(check int) "first pass: no hits" 0
    (mid.Prelude.Instrument.memo_hits - before.Prelude.Instrument.memo_hits);
  Alcotest.(check int) "second pass: all hits" (Array.length inputs)
    (after.Prelude.Instrument.memo_hits - mid.Prelude.Instrument.memo_hits);
  Alcotest.(check int) "second pass: no misses" 0
    (after.Prelude.Instrument.memo_misses - mid.Prelude.Instrument.memo_misses)

(* A grid is [time] by index: the same draws through either, each on a
   fresh engine, give the same values, memo hits and memo misses. *)
let test_grid_memo_counts_match_time () =
  List.iter
    (fun entry ->
       let name, program, states, inputs = standard_space entry in
       let rng = Prelude.Rng.make 7 in
       let draws =
         List.init (3 * Array.length states * Array.length inputs) (fun _ ->
             let q = Prelude.Rng.int rng (Array.length states) in
             (q, Prelude.Rng.int rng (Array.length inputs)))
       in
       let counted cell =
         let before = Prelude.Instrument.snapshot () in
         let times = List.map (fun (q, i) -> cell q i) draws in
         let after = Prelude.Instrument.snapshot () in
         (times,
          after.Prelude.Instrument.memo_hits
          - before.Prelude.Instrument.memo_hits,
          after.Prelude.Instrument.memo_misses
          - before.Prelude.Instrument.memo_misses)
       in
       let by_time =
         let eng = Fastpath.Engine.create program in
         counted (fun q i -> Fastpath.Engine.time eng states.(q) inputs.(i))
       in
       let by_grid =
         counted
           (Fastpath.Engine.grid (Fastpath.Engine.create program) states inputs)
       in
       let times_t, hits_t, misses_t = by_time
       and times_g, hits_g, misses_g = by_grid in
       Alcotest.(check (list int)) (name ^ ": values") times_t times_g;
       Alcotest.(check int) (name ^ ": memo hits") hits_t hits_g;
       Alcotest.(check int) (name ^ ": memo misses") misses_t misses_g)
    Isa.Workload.registry

(* --- Scratch lifetime ---------------------------------------------------- *)

(* A resident process (the CLI's main domain, a daemon worker) creates
   engines for as long as it lives. Once an engine and its state are
   dropped, the collector must be able to reclaim the state: nothing keeps
   a state past the cell that replayed it, so every one comes back. *)
let leak_engines = 200

let[@inline never] time_on_fresh_engines reclaimed =
  let w = Isa.Workload.find "clamp" in
  let program, _ = Isa.Workload.program w in
  let input = List.hd w.Isa.Workload.inputs in
  for _ = 1 to leak_engines do
    let st =
      List.hd (Predictability.Harness.inorder_states ~count:1 program w)
    in
    Gc.finalise_last (fun () -> incr reclaimed) st;
    let eng = Fastpath.Engine.create program in
    ignore (Fastpath.Engine.time eng st input)
  done

let test_dropped_engines_reclaimed () =
  let reclaimed = ref 0 in
  time_on_fresh_engines reclaimed;
  Gc.full_major ();
  Gc.full_major ();
  if !reclaimed < leak_engines then
    Alcotest.failf "%d of %d dropped states reclaimed" !reclaimed
      leak_engines

(* OCaml 5.1 never frees a domain-local key, so a key made per engine (or
   per call) pins its last value in every domain that touched it. Every
   [Domain.DLS.new_key] under lib/ must be a module-level [let name = ...]
   binding, evaluated once per process. The sources are read from the
   build tree next to the test executable (test/dune declares them). *)
let rec ml_files dir =
  Array.fold_left
    (fun acc entry ->
       let path = Filename.concat dir entry in
       if Sys.is_directory path then ml_files path @ acc
       else if Filename.check_suffix entry ".ml" then path :: acc
       else acc)
    [] (Sys.readdir dir)

let new_key = "Domain.DLS.new_key"

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

(* The text before the call must be exactly ["let <name> = "]. *)
let module_level_binding before =
  let ident_char = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
    | _ -> false
  in
  match String.split_on_char ' ' before with
  | [ "let"; name; "="; "" ] -> name <> "" && String.for_all ident_char name
  | _ -> false

let test_dls_keys_module_level () =
  let sites =
    List.concat_map
      (fun path ->
         In_channel.with_open_text path In_channel.input_all
         |> String.split_on_char '\n'
         |> List.filter_map (fun line ->
             Option.map
               (fun at -> (path, line, String.sub line 0 at))
               (find_sub line new_key)))
      (ml_files
         (Filename.concat (Filename.dirname Sys.executable_name) "../lib"))
  in
  Alcotest.(check bool) "lib/ has domain-local keys" true (sites <> []);
  List.iter
    (fun (path, line, before) ->
       if not (module_level_binding before) then
         Alcotest.failf "%s: not a module-level key: %s" path
           (String.trim line))
    sites

(* --- Generated programs --------------------------------------------------- *)

let random_state_gen program =
  QCheck.Gen.(
    let universe =
      List.init (Isa.Program.length program) (fun pc ->
          Isa.Program.instr_address program pc)
    in
    let* mem =
      let* choice = int_range 0 3 in
      match choice with
      | 0 -> return Pipeline.Mem_system.perfect
      | 1 ->
        return
          { Pipeline.Mem_system.imem = Pipeline.Mem_system.Flat 2;
            dmem = Pipeline.Mem_system.Flat 4 }
      | 2 ->
        let* seed = int_range 0 999 in
        let* touches = int_range 0 20 in
        let icache =
          Cache.Set_assoc.warmed Predictability.Harness.icache_config ~seed
            ~touches ~universe
        in
        (* Warmed over the words generated programs load and store: under
           LRU, lines a program never touches cannot change its hits. *)
        let dcache =
          Cache.Set_assoc.warmed Predictability.Harness.dcache_config
            ~seed:(seed + 1) ~touches
            ~universe:(List.init Gen_workload.words Fun.id)
        in
        return
          { Pipeline.Mem_system.imem =
              Pipeline.Mem_system.Cached
                { cache = icache; hit = Predictability.Harness.icache_hit;
                  miss = Predictability.Harness.icache_miss };
            dmem =
              Pipeline.Mem_system.Cached
                { cache = dcache; hit = Predictability.Harness.dcache_hit;
                  miss = Predictability.Harness.dcache_miss } }
      | _ ->
        return
          { Pipeline.Mem_system.imem =
              Pipeline.Mem_system.Spm
                { spm = Cache.Scratchpad.make ~base:0 ~size:48; hit = 1;
                  backing = 6 };
            dmem = Pipeline.Mem_system.Flat 3 }
    in
    let* which = int_range 0 (List.length predictor_pool - 1) in
    return
      (Pipeline.Inorder.state ~mem
         ~predictor:(List.nth predictor_pool which) ()))

let memo_agreement_case =
  let gen =
    QCheck.Gen.(
      let* w = Gen_workload.gen in
      let program, _ = Isa.Workload.program w in
      let* states = list_size (int_range 1 3) (random_state_gen program) in
      return (w, states))
  in
  QCheck.make gen
    ~print:(fun (w, states) ->
        Printf.sprintf "%s\n%d states" (Gen_workload.print w)
          (List.length states))
    ~shrink:(QCheck.Shrink.pair Gen_workload.shrink QCheck.Shrink.nil)

let prop_memoized_agrees_with_unmemoized =
  QCheck.Test.make ~count:200
    ~name:"memoized and unmemoized T_p agree (random programs/states/inputs)"
    memo_agreement_case
    (fun (w, states) ->
       let program, _ = Isa.Workload.program w in
       let inputs = w.Isa.Workload.inputs in
       let with_memo = Fastpath.Engine.create ~memo:true program in
       let without = Fastpath.Engine.create ~memo:false program in
       List.for_all
         (fun q ->
            List.for_all
              (fun i ->
                 let exact = Pipeline.Inorder.time program q i in
                 Fastpath.Engine.time with_memo q i = exact
                 && Fastpath.Engine.time without q i = exact
                 (* and the memo hit on re-query *)
                 && Fastpath.Engine.time with_memo q i = exact)
              inputs)
         states
       (* FIG1.FAST's claim on any program: over the standard uncertainty
          space (Harness.inorder_states x inputs) Engine.grid equals the
          interpreter, memo on and off. *)
       &&
       let standard = Predictability.Harness.inorder_states program w in
       let exact =
         List.map (fun q -> List.map (Pipeline.Inorder.time program q) inputs)
           standard
       in
       List.for_all
         (fun memo ->
            let cell =
              Fastpath.Engine.grid
                (Fastpath.Engine.create ~memo program)
                (Array.of_list standard) (Array.of_list inputs)
            in
            List.mapi (fun q row -> List.mapi (fun i _ -> cell q i) row) exact
            = exact)
         [ true; false ])

(* --- Determinism across jobs, and the timer's schedule -------------------- *)

let test_jobs_determinism () =
  let w = Isa.Workload.find "bubble_sort" in
  let program, _ = Isa.Workload.program w in
  (* The first grid (60 cells) stays on the calling domain; the second, 18
     states x all 120 inputs, reaches Quantify.inline_cells, so its batched
     rows fan out. *)
  let big_states = Predictability.Harness.inorder_states ~count:17 program w in
  Alcotest.(check bool) "second grid reaches the pool" true
    (List.length big_states * List.length w.Isa.Workload.inputs
     >= Predictability.Quantify.inline_cells);
  List.iter
    (fun (states, inputs) ->
       let exact =
         Predictability.Quantify.evaluate ~jobs:1 ~states ~inputs
           ~time:(Predictability.Harness.inorder_time program) ()
       in
       let cells = List.length states * List.length inputs in
       List.iter
         (fun jobs ->
            let timer = Predictability.Harness.inorder_timer program in
            let fast =
              Predictability.Quantify.evaluate_timer ~jobs ~states ~inputs timer
            in
            Alcotest.(check bool)
              (Printf.sprintf "fast matrix (%d cells) at jobs=%d equals exact"
                 cells jobs)
              true (fast = exact);
            (* Re-evaluating through the same timer serves memo hits; the
               matrix must not change. *)
            let again =
              Predictability.Quantify.evaluate_timer ~jobs ~states ~inputs timer
            in
            Alcotest.(check bool)
              (Printf.sprintf "memoized re-evaluation (%d cells) at jobs=%d stable"
                 cells jobs)
              true (again = exact))
         [ 1; 2; 4; 8 ])
    [ (Predictability.Harness.inorder_states program w,
       take 10 w.Isa.Workload.inputs);
      (big_states, w.Isa.Workload.inputs) ]

let test_quantify_fast_inline_small_matrices () =
  (* A small batched matrix stays on the calling domain; its values must
     equal the scalar matrix's, which fans out. *)
  let time q i = (10 * q) + i in
  let states = [ 1; 2; 3 ] in
  let inputs = [ 1; 2; 3; 4 ] in
  let exact = Predictability.Quantify.evaluate ~states ~inputs ~time () in
  let batched =
    Predictability.Quantify.evaluate_timer ~states ~inputs
      (Predictability.Quantify.Batched
         { grid = (fun states inputs q i -> time states.(q) inputs.(i)) })
  in
  Alcotest.(check bool) "inline batched = scalar" true (exact = batched)

let test_quantify_batched_validation () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  let negative =
    Predictability.Quantify.Batched { grid = (fun _ _ _ _ -> -1) }
  in
  Alcotest.(check bool) "non-positive batched cell rejected" true
    (raises (fun () ->
         Predictability.Quantify.evaluate_timer ~states:[ 0 ] ~inputs:[ 0; 1 ]
           negative))

(* The timer decides where rows run: scalar rows always fan out, batched
   rows stay on the calling domain below Quantify.inline_cells and fan out
   from there on. A fan-out runs on the caller beside its helpers, so each
   fanned-out cell records its domain and then waits (at most 5 s) until a
   second domain has recorded: neither row can finish alone, and both
   runners show up. *)
let test_timer_decides_schedule () =
  let caller = (Domain.self () :> int) in
  let mu = Mutex.create () in
  let cells = ref 0 and domains = ref [] in
  let distinct () = Mutex.protect mu (fun () -> List.length !domains) in
  let record ~wait =
    let me = (Domain.self () :> int) in
    Mutex.protect mu (fun () ->
        incr cells;
        if not (List.mem me !domains) then domains := me :: !domains);
    let deadline = Prelude.Mono.now () +. 5. in
    while wait && distinct () < 2 && Prelude.Mono.now () < deadline do
      Domain.cpu_relax ()
    done
  in
  let scalar =
    Predictability.Quantify.Scalar (fun _ _ -> record ~wait:true; 1)
  in
  let batched ~wait =
    Predictability.Quantify.Batched
      { grid = (fun _ _ _ _ -> record ~wait; 1) }
  in
  (* Two rows at jobs 4, [n] inputs each; returns (cells, distinct domains,
     whether the caller is one of them). *)
  let run timer n =
    cells := 0;
    domains := [];
    ignore
      (Predictability.Quantify.evaluate_timer ~jobs:4 ~states:[ 0; 1 ]
         ~inputs:(List.init n Fun.id) timer);
    (!cells, List.length !domains, List.mem caller !domains)
  in
  let inline_cells = Predictability.Quantify.inline_cells in
  let triple = Alcotest.(triple int int bool) in
  let small = (inline_cells - 1) / 2 and large = (inline_cells + 1) / 2 in
  Alcotest.check triple "scalar rows fan out, the caller beside a helper"
    (6, 2, true) (run scalar 3);
  Alcotest.check triple "small batched rows all on the caller"
    (2 * small, 1, true) (run (batched ~wait:false) small);
  Alcotest.check triple
    "large batched rows fan out, the caller beside a helper"
    (2 * large, 2, true) (run (batched ~wait:true) large)

(* --- Cache_metrics packed exploration ------------------------------------ *)

(* Every kind up to ways 4. At ways 4 the budget of 10 reaches every evict
   horizon RW.CACHE reports and LRU's fill; the other fills lie beyond it,
   so every depth up to 10 is explored. The exact engine is the boxed
   reference. *)
let test_cache_metrics_engines_agree () =
  List.iter
    (fun kind ->
       List.iter
         (fun ways ->
            let max_probes = if ways = 4 then 10 else (2 * ways) + 2 in
            let exact_evict =
              Predictability.Cache_metrics.evict ~jobs:1 kind ~ways ~max_probes
            in
            let fast_evict =
              Predictability.Cache_metrics.evict ~jobs:1 ~engine:`Fast kind
                ~ways ~max_probes
            in
            let exact_fill =
              Predictability.Cache_metrics.fill ~jobs:1 kind ~ways ~max_probes
            in
            let fast_fill =
              Predictability.Cache_metrics.fill ~jobs:1 ~engine:`Fast kind
                ~ways ~max_probes
            in
            Alcotest.(check string)
              (Printf.sprintf "%s ways=%d evict"
                 (Cache.Policy.kind_name kind) ways)
              (Predictability.Cache_metrics.estimate_to_string exact_evict)
              (Predictability.Cache_metrics.estimate_to_string fast_evict);
            Alcotest.(check string)
              (Printf.sprintf "%s ways=%d fill"
                 (Cache.Policy.kind_name kind) ways)
              (Predictability.Cache_metrics.estimate_to_string exact_fill)
              (Predictability.Cache_metrics.estimate_to_string fast_fill))
         (if kind = Cache.Policy.Plru then [ 1; 2; 4 ] else [ 1; 2; 3; 4 ]))
    Cache.Policy.all_kinds

let () =
  Alcotest.run "fastpath"
    [ ("replay",
       [ QCheck_alcotest.to_alcotest prop_set_assoc_replay_matches_access;
         QCheck_alcotest.to_alcotest prop_packed_step_matches_access;
         QCheck_alcotest.to_alcotest prop_predictor_replay_matches_update;
         Alcotest.test_case "Policy.pack injective" `Quick
           test_policy_pack_injective ]);
      ("engine",
       [ Alcotest.test_case "matches interpreter (default states)" `Quick
           test_engine_vs_interpreter_default;
         Alcotest.test_case "matches interpreter (dynamic predictor)" `Quick
           test_engine_vs_interpreter_dynamic_predictor;
         Alcotest.test_case "stateless levels agree" `Quick
           test_engine_stateless_levels;
         Alcotest.test_case "grid matches interpreter (random order, memo \
                             on/off, two engines)" `Quick
           test_grid_vs_interpreter ]);
      ("memo",
       [ Alcotest.test_case "hit/miss counting" `Quick
           test_memo_hit_miss_counting;
         Alcotest.test_case "grid counts the hits and misses of time" `Quick
           test_grid_memo_counts_match_time;
         QCheck_alcotest.to_alcotest prop_memoized_agrees_with_unmemoized ]);
      ("scratch",
       [ Alcotest.test_case "dropped engines and states reclaimed" `Quick
           test_dropped_engines_reclaimed;
         Alcotest.test_case "domain-local keys are module-level" `Quick
           test_dls_keys_module_level ]);
      ("determinism",
       [ Alcotest.test_case "jobs 1/2/4/8" `Quick test_jobs_determinism;
         Alcotest.test_case "fast inline small matrices" `Quick
           test_quantify_fast_inline_small_matrices;
         Alcotest.test_case "batched validation" `Quick
           test_quantify_batched_validation;
         Alcotest.test_case "timer decides the schedule" `Quick
           test_timer_decides_schedule ]);
      ("cache-metrics",
       [ Alcotest.test_case "packed = generic exploration" `Slow
           test_cache_metrics_engines_agree ]) ]
