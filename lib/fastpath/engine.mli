(** The fast-path evaluator for [T_p(q, i)] on the in-order machine.

    One engine serves one program. The input alone fixes the functional
    trace, so the engine compiles it once per input to flat arrays
    ({!Trace}); per cell it steps every event of that trace against
    bit-packed cache and predictor state ({!Cache.Set_assoc.replay},
    {!Branchpred.Predictor.replay}), the part of the cost the initial
    hardware state [q] fixes. There is no per-block shortcut: every
    standard uncertainty space has a cached instruction memory, so every
    fetch's cost depends on [q]. On top sits an optional memo table keyed
    by (program digest, packed state, packed input).

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
    prepared, so a warm hit never builds the replay state.

    Each domain has one scratch slot, shared by every engine. For [time]
    it interns the last state and input the domain evaluated (compared
    physically), with the state's key and prepared replay and the input's
    compiled trace. The slot pays off while consecutive calls repeat the
    state, as along a matrix row; a call with a different state packs it
    into a key again, even when the memo then hits, so callers that
    address cells by index use {!grid} instead. The slot is cleared when
    a different engine uses it. Engines leave nothing in domain-local
    storage, so a dropped engine and the states it evaluated can be
    collected even in a long-lived domain; the slot keeps at most the
    last state and input per domain. *)

val grid :
  t -> Pipeline.Inorder.state array -> Isa.Exec.input array -> int -> int ->
  int
(** [grid t states inputs] is [cell] with [cell q i] equal to
    [time t states.(q) inputs.(i)], with the same memo keys, memo hits and
    misses, and values. Callers that address cells by index use it instead
    of [time]: the grid packs each state's key and compiles each input's
    trace at most once per index, on the first cell that uses it, so a
    warm cell is one memo lookup whatever order the cells come in. A cell
    whose input the interpreter rejects raises as [time] does and leaves
    the grid usable. On a memo miss the prepared replay comes from the
    domain's scratch slot, as for [time]. The grid keeps [states] and
    [inputs] and one key and trace per index, no more. Safe to call from
    any number of domains at once.
    @raise Invalid_argument on an index out of range. *)
