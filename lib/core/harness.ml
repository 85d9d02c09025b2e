let icache_config =
  { Cache.Set_assoc.sets = 8; ways = 2; line = 16; kind = Cache.Policy.Lru }

let dcache_config =
  { Cache.Set_assoc.sets = 4; ways = 2; line = 2; kind = Cache.Policy.Lru }

let icache_hit = 1
let icache_miss = 8
let dcache_hit = 1
let dcache_miss = 8

let instruction_universe program =
  List.init (Isa.Program.length program)
    (fun pc -> Isa.Program.instr_address program pc)

let data_universe (w : Isa.Workload.t) =
  let of_input (i : Isa.Exec.input) = List.map fst i.Isa.Exec.mem in
  Prelude.Listx.uniq Stdlib.compare
    (List.concat_map of_input w.Isa.Workload.inputs)

let memory_of ~icache ~dcache =
  { Pipeline.Mem_system.imem =
      Pipeline.Mem_system.Cached
        { cache = icache; hit = icache_hit; miss = icache_miss };
    dmem =
      Pipeline.Mem_system.Cached
        { cache = dcache; hit = dcache_hit; miss = dcache_miss } }

let inorder_states ?(predictor = Branchpred.Predictor.static Branchpred.Predictor.Btfn)
    ?(count = 5) program w =
  let instr_universe = instruction_universe program in
  let data_univ =
    match data_universe w with [] -> [ Isa.Workload.data_base ] | u -> u
  in
  let icaches =
    Cache.Set_assoc.state_samples icache_config ~universe:instr_universe
      ~count ~seed:0x1ca
  in
  let dcaches =
    Cache.Set_assoc.state_samples dcache_config ~universe:data_univ
      ~count ~seed:0xdca
  in
  List.map2
    (fun icache dcache ->
       { Pipeline.Inorder.mem = memory_of ~icache ~dcache; predictor })
    icaches dcaches

let inorder_timer ?(memo = true) program =
  let eng = Fastpath.Engine.create ~memo program in
  Quantify.Batched { grid = Fastpath.Engine.grid eng }

let cached_analysis ~unroll =
  { Analysis.Wcet.icache =
      Analysis.Wcet.Cached_fetch
        { config = icache_config; hit = icache_hit; miss = icache_miss };
    dmem = Analysis.Wcet.Range_data { best = dcache_hit; worst = dcache_miss };
    unroll; budget = None }

let outcomes program inputs = List.map (Isa.Exec.run program) inputs

let ratio_string r =
  Printf.sprintf "%s (%.3f)" (Prelude.Ratio.to_string r) (Prelude.Ratio.to_float r)

(* True elapsed wall clock around a whole run. Distinct from summing the
   per-experiment wall_s of [try_timed]: under jobs>1 experiments overlap,
   so the sum is CPU-time-flavoured and exceeds this. *)
let elapsed f =
  let started = Prelude.Instrument.now () in
  let v = f () in
  (v, Prelude.Instrument.now () -. started)

(* Run [f] with its wall clock and the calling domain's counter deltas
   bracketed; the bracket closes on the error path too, so a crashed
   experiment attempt still reports how long it took to fail. Deltas, not
   reset-then-snapshot: resetting would wipe counts a domain has
   accumulated for other tasks, and on a Parallel helper it would leave a
   residue behind that the join credits to the caller a second time. *)
let try_timed f =
  let before = Prelude.Instrument.snapshot () in
  let started = Prelude.Instrument.now () in
  let outcome =
    match f () with
    | v -> Ok v
    | exception exn -> Error (exn, Printexc.get_raw_backtrace ())
  in
  let wall_s = Prelude.Instrument.now () -. started in
  let after = Prelude.Instrument.snapshot () in
  (outcome,
   { Report.wall_s;
     cells = after.Prelude.Instrument.cells - before.Prelude.Instrument.cells;
     evals = after.Prelude.Instrument.evals - before.Prelude.Instrument.evals })
