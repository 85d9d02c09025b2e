(** The fast-path evaluator for [T_p(q, i)] on the in-order machine.

    One engine serves one program. The input alone fixes the functional
    trace, so the engine compiles it once per input to flat arrays
    ({!Trace}); per cell it steps every event of that trace against
    bit-packed cache and predictor state ({!Cache.Set_assoc.replay},
    {!Branchpred.Predictor.replay}), the part of the cost the initial
    hardware state [q] fixes. There is no per-block shortcut: every
    standard uncertainty space has a cached instruction memory, so every
    fetch's cost depends on [q]. On top sits an optional memo table keyed
    by (program digest, packed state, packed input). A memo miss builds
    the packed state from the immutable [q] it is given and drops it when
    the cell returns; nothing is kept per domain, so a dropped engine and
    the states it evaluated can always be collected.

    Determinism: every produced time equals {!Pipeline.Inorder.time} on the
    same [(q, i)] (the FIG1.FAST oracle asserts bit-identical matrices on
    the whole workload registry), and all shared tables hold pure functions
    of their keys behind a mutex, so concurrent rows from any number of
    worker domains — and any memo hit/miss interleaving — return identical
    values. Memo hit/miss counts are credited to
    {!Prelude.Instrument.counts} (deterministic only at [jobs = 1]). *)

type t

val create : ?memo:bool -> Isa.Program.t -> t
(** [memo] defaults to [true]; [create ~memo:false] replays every cell.
    The engine holds the program, the memo table and one compiled trace
    per distinct input it has seen. Neither table has a cap: both are
    bounded by the states and inputs the engine is given, so an engine
    evaluated over a pinned uncertainty set (the serve daemon's, which
    addresses cells by range-checked index) holds at most one memo cell
    per distinct (state, input) pair of that set. *)

val memo_size : t -> int
(** Memoised cells currently held (0 when [memo] is off). *)

val time : t -> Pipeline.Inorder.state -> Isa.Exec.input -> int
(** Drop-in for {!Pipeline.Inorder.time} (bit-identical): the one-cell
    grid [grid t [| st |] [| i |] 0 0]. It keeps nothing between calls,
    so every call packs the state into its memo key and keys the input
    again, even when the memo then hits; callers that address cells by
    index use {!grid}. *)

val grid :
  t -> Pipeline.Inorder.state array -> Isa.Exec.input array -> int -> int ->
  int
(** [grid t states inputs] is [cell], with [cell q i] the fast-path
    [T_p(states.(q), inputs.(i))]. The grid packs each state's key and
    compiles each input's trace at most once per index, on the first cell
    that uses it, so a warm cell is one memo lookup whatever order the
    cells come in; the memo is consulted on the packed state's key before
    the replay state is built, so a warm hit never builds it. A memo miss
    builds the replay state of [states.(q)] and steps it within that one
    cell. A cell whose input the interpreter rejects raises and leaves the
    grid usable. The grid keeps [states] and [inputs] and one key and
    trace per index, no more. Safe to call from any number of domains at
    once.
    @raise Invalid_argument on an index out of range. *)
