(** Shared plumbing for the experiment suite: standard cache geometries,
    uncertainty-set builders, and timing helpers. *)

val icache_config : Cache.Set_assoc.config
(** 8 sets x 2 ways x 16-byte lines, LRU: the instruction cache used by the
    in-order experiments. *)

val dcache_config : Cache.Set_assoc.config
(** 4 sets x 2 ways x 2-word lines, LRU. *)

val icache_hit : int
val icache_miss : int
val dcache_hit : int
val dcache_miss : int

val instruction_universe : Isa.Program.t -> int list
(** All instruction addresses of a program (for warming instruction
    caches). *)

val data_universe : Isa.Workload.t -> int list
(** Data addresses the workload's inputs mention. *)

val inorder_states :
  ?predictor:Branchpred.Predictor.t -> ?count:int ->
  Isa.Program.t -> Isa.Workload.t -> Pipeline.Inorder.state list
(** The uncertainty set [Q] for the in-order machine: cold memory plus
    [count] warmed cache states (deterministic), all with the given
    predictor. *)

val inorder_timer :
  ?memo:bool -> Isa.Program.t ->
  (Pipeline.Inorder.state, Isa.Exec.input) Quantify.timer
(** The in-order [T_p] as a [Batched] {!Quantify.timer} over a
    {!Fastpath.Engine} (one per call — reuse the timer across evaluations
    to share its caches), bit-identical to {!Pipeline.Inorder.time},
    which stays the exact reference. [memo] (default true) enables the
    engine's [T_p] memo table. *)

val cached_analysis : unroll:bool -> Analysis.Wcet.config
(** The static analysis of the cached in-order machine: instruction
    fetches through an LRU {!icache_config} from an unknown initial
    state, data accesses charged {!dcache_hit}..{!dcache_miss}, no
    domain budget. The usual bracket unrolls on the UB side only. *)

val outcomes : Isa.Program.t -> Isa.Exec.input list -> Isa.Exec.outcome list
(** Functional executions of all inputs (shared by trace-driven models). *)

val ratio_string : Prelude.Ratio.t -> string
(** e.g. "3/4 (0.750)". *)

val elapsed : (unit -> 'a) -> 'a * float
(** [f ()] and the true elapsed wall-clock seconds around it. Not the same
    quantity as summing {!try_timed} [wall_s] over experiments: when runs
    overlap on worker domains the sum double-counts overlapped time, while
    this measures once, end to end. *)

val try_timed :
  (unit -> 'a) ->
  ('a, exn * Printexc.raw_backtrace) Stdlib.result * Report.timing
(** Run a thunk with instrumentation: wall-clock time plus the deltas of
    the calling domain's {!Prelude.Instrument} counters across the call.
    Parallel kernels credit their sweeps to the calling domain, so this
    attributes correctly even when [f] fans out internally. The bracket
    closes on the error path too, so a crashed or timed-out experiment
    attempt still reports how much wall clock and counter work it burned
    before failing. Never raises (from [f]'s exceptions). *)
