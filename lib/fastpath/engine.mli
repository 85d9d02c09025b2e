(** The compositional fast-path evaluator for [T_p(q, i)] on the in-order
    machine.

    One engine serves one program. Per input it compiles the functional
    trace to flat arrays ({!Trace}); per machine-feature vector it
    classifies basic blocks as context-free or context-dependent
    ({!Classify}); per (execution context, input) it pre-sums the
    context-free runs ({!Summary}); and per cell it replays summaries,
    stepping only context-dependent regions against bit-packed cache and
    predictor state ({!Cache.Set_assoc.replay},
    {!Branchpred.Predictor.replay}). On top sits an optional memo table
    keyed by (program digest, packed state, packed input) — ROADMAP item
    3's serve-mode cache in embryo.

    Determinism: every produced time equals {!Pipeline.Inorder.time} on the
    same [(q, i)] (the FIG1.FAST oracle asserts bit-identical matrices on
    the whole workload registry), and all shared tables hold pure functions
    of their keys behind a mutex, so concurrent rows from any number of
    worker domains — and any memo hit/miss interleaving — return identical
    values. Memo hit/miss counts are credited to
    {!Prelude.Instrument.counts} (deterministic only at [jobs = 1]). *)

type t

val create : ?memo:bool -> ?memo_bound:int -> Isa.Program.t -> t
(** [memo] defaults to [true]; [create ~memo:false] replays every cell.
    [memo_bound] (default: unbounded) caps the memo table at that many
    cells, evicting the oldest-inserted entries first — the resident-
    daemon configuration, where an unbounded cache is a slow memory leak.
    Eviction only ever costs extra replays, never wrong values.
    @raise Invalid_argument on [memo_bound < 1]. *)

val memoized : t -> bool

val memo_size : t -> int
(** Memoised cells currently held (0 when [memo] is off). *)

val memo_bound : t -> int option
(** The configured cap, if any. *)

val time : t -> Pipeline.Inorder.state -> Isa.Exec.input -> int
(** Drop-in for {!Pipeline.Inorder.time} (bit-identical). The memo is
    consulted on the packed state's key before the replay state is
    prepared, so a warm hit never packs the caches and predictor.

    Each domain has one scratch slot for scalar calls, shared by every
    engine: it interns the last state and input a domain evaluated
    (compared physically), with their key, prepared replay and compiled
    trace, and is cleared when a different engine uses it. Engines leave
    nothing in domain-local storage, so a dropped engine and the states
    it evaluated can be collected even in a long-lived domain; the slot
    keeps at most the last state and input per domain. *)

val row : t -> Pipeline.Inorder.state -> Isa.Exec.input array -> int array
(** One matrix row in lockstep: the state is packed once, traces are
    interned once per distinct input array, and each cell resets the packed
    working state by blitting. Safe to call concurrently from worker
    domains. *)
