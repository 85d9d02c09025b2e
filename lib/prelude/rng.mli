(** Deterministic pseudo-random number generator (splitmix64).

    Experiments must be reproducible run-to-run, so all randomness in the
    repository flows through explicitly seeded generators. *)

type t

val make : int -> t
(** [make seed] is a fresh generator; equal seeds give equal streams. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound) — exactly uniformly:
    draws are rejection-sampled, not reduced with a bare modulo (which
    would overweight small residues for bounds near [max_int]). A draw
    may consume more than one step of the underlying stream (with
    probability [(2^63 mod bound) / 2^63]; never for power-of-two or
    small bounds). Allocates nothing: the state is unboxed, so the
    bootstrap loops that draw millions of indices create no garbage.
    @raise Invalid_argument if [bound <= 0]. *)

val fill : t -> int -> int array -> unit
(** [fill t bound dst] writes into [dst], in index order, the values that
    [Array.length dst] successive [int t bound] calls would return, and
    leaves [t] where those calls would: same stream, same rejection rule.
    The bootstrap loops draw each resample's indices with one call, which
    loads and stores the state once instead of once per draw. An empty
    [dst] leaves [t] unchanged. Allocates nothing.
    @raise Invalid_argument if [bound <= 0] and [dst] is not empty. *)

val float : t -> float -> float

val pick : t -> 'a list -> 'a
(** Uniform draw from a non-empty list. @raise Invalid_argument on []. *)

val shuffle : t -> 'a list -> 'a list
(** Uniform permutation (array-based Fisher-Yates). *)

val split : t -> t
(** An independent generator derived from [t]'s stream. *)

val split_key : t -> int -> t
(** [split_key t k] is an independent generator for substream [k], derived
    from [t]'s current state {e without advancing it}: equal [(state, k)]
    pairs give equal streams, and distinct keys give decorrelated streams.
    The sampling estimators key every cell's stream by cell index with
    this, so the drawn cells are identical no matter how the draw loop is
    scheduled across worker domains. *)
