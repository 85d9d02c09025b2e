(** The paper's timing-predictability quantities (Definitions 2-5), computed
    exhaustively over finite uncertainty sets.

    Given a timing function [T_p(q, i)] (Def. 2), a set [Q] of initial
    hardware states and a set [I] of admissible inputs:

    - [Pr_p(Q, I)  = min_{q1,q2 in Q} min_{i1,i2 in I} T(q1,i1) / T(q2,i2)]
      (Def. 3) — overall timing predictability, in (0, 1], where 1 is
      perfectly predictable;
    - [SIPr] (Def. 4) fixes the input and varies only the state: the
      hardware's contribution to unpredictability;
    - [IIPr] (Def. 5) fixes the state and varies only the input: the
      software's contribution.

    All quotients are exact rationals. Execution times must be positive. *)

type matrix = int array array
(** Evaluated timing matrix over [Q * I], indexed [state][input] (each
    [T(q, i)] computed once). {!evaluate} and {!of_rows} are the sanctioned
    constructors: they guarantee a non-empty rectangular matrix of positive
    times, which every quantifier assumes (and, defensively, re-validates —
    a hand-built empty or ragged array raises [Invalid_argument] rather
    than yielding a silently wrong quotient). *)

val of_rows : int array array -> matrix
(** Adopt precomputed timings (copied, so later mutation of [rows] cannot
    break the invariant).
    @raise Invalid_argument if [rows] is empty, ragged, has empty rows, or
    contains a non-positive execution time. *)

val evaluate :
  ?jobs:int -> states:'q list -> inputs:'i list ->
  time:('q -> 'i -> int) -> unit -> matrix
(** Rows (one per state) are evaluated in parallel on [jobs] worker domains
    (default {!Prelude.Parallel.default_jobs}); the resulting matrix — and
    every quantity derived from it — is bit-identical for any job count.
    Credits the [Q * I] sweep to {!Prelude.Instrument}.
    @raise Invalid_argument on empty [states]/[inputs] or a non-positive
    execution time. *)

type ('q, 'i) timer =
  | Scalar of ('q -> 'i -> int)
  | Batched of {
      grid : 'q array -> 'i array -> int -> int -> int;
        (** [grid states inputs] is [cell], where [cell q i] times
            [states.(q)] on [inputs.(i)]. Built once per evaluation or
            sample over the caller's arrays, and called from any number of
            worker domains. *)
    }
(** A timing function. A [Scalar] timer such as {!Pipeline.Inorder.time}
    is called per cell and is the exact reference. A [Batched] timer
    addresses cells by index, so it can derive what it needs from each
    state and input once per index rather than once per cell:
    {!Harness.inorder_timer} builds one over {!Fastpath.Engine.grid}. *)

val inline_cells : int
(** Batched matrices with fewer cells than this run on the calling
    domain, where a fan-out's per-call helper spawns would dominate. *)

val evaluate_timer :
  ?jobs:int -> states:'q list -> inputs:'i list -> ('q, 'i) timer -> matrix
(** {!evaluate} generalised over {!timer}; with a [Scalar] timer it is
    exactly {!evaluate}. The timer decides the schedule: a [Batched]
    matrix under {!inline_cells} runs on the calling domain, every other
    matrix fans out over up to [jobs] domains, the calling domain
    included. The matrix is bit-identical either way. Validation runs in place on each freshly produced row — a single
    pass, no second O(Q*I) sweep. *)

val sample :
  ?jobs:int -> spec:Sampling.Sampler.spec -> states:'q list ->
  inputs:'i list -> ('q, 'i) timer -> Sampling.Sampler.result
(** Sampled evaluation: estimate Pr/SIPr/IIPr, the mean
    and pWCET-style BCET/WCET tails from a seeded subset of cells instead
    of materialising [Q * I] — the scale-past-exhaustive path. The timer
    is invoked per sampled cell, through one grid for a [Batched] timer;
    for the timer {!Harness.inorder_timer} builds, that is the fast-path
    engine, whose memo table absorbs the with-replacement repeats.
    Results are bit-identical for any [jobs] and credit their evaluation
    count (not [Q * I]) to {!Prelude.Instrument}.
    @raise Invalid_argument on empty [states]/[inputs], an invalid spec,
    or a non-positive execution time. *)

val pr : matrix -> Prelude.Ratio.t
(** Def. 3.
    @raise Invalid_argument on an empty or ragged matrix. *)

val sipr : matrix -> Prelude.Ratio.t
(** Def. 4: [min_i (min_q T(q,i) / max_q T(q,i))].
    @raise Invalid_argument on an empty or ragged matrix. *)

val iipr : matrix -> Prelude.Ratio.t
(** Def. 5: [min_q (min_i T(q,i) / max_i T(q,i))].
    @raise Invalid_argument on an empty or ragged matrix (it used to
    return [Ratio.one] for [[||]] while {!sipr} raised; both now
    reject). *)

val bcet : matrix -> int
(** Exhaustive best case over [Q * I] — ground truth for Figure 1. *)

val wcet : matrix -> int
val times : matrix -> int list
(** All observed execution times (row-major), e.g. for histograms. *)

val predictability :
  ?jobs:int -> states:'q list -> inputs:'i list ->
  time:('q -> 'i -> int) -> unit ->
  Prelude.Ratio.t * Prelude.Ratio.t * Prelude.Ratio.t
(** [(pr, sipr, iipr)] in one evaluation. *)
