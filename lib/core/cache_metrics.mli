(** Replacement-policy predictability metrics (Reineke et al., "Timing
    predictability of cache replacement policies", cited as the related work
    [20] that defines inherent metrics for one component class).

    Starting from a completely unknown full cache set, an analysis regains
    information by observing a sequence of accesses to pairwise-distinct
    blocks. Two horizons measure how fast uncertainty can be removed:

    - [evict]: the minimal number of distinct-block accesses after which
      {e no} unknown original block can still be cached (may-information
      complete);
    - [fill]: the minimal number after which the entire cache state is a
      function of the accessed blocks alone (must-information complete, the
      state is unique).

    Both are computed here by exhaustive exploration of the policy's state
    space — they are inherent properties, independent of any analysis.
    Expected orderings (ibid.): LRU achieves the minimum ([evict = fill =
    k]); FIFO, PLRU and MRU need strictly longer sequences, bounding the
    precision of {e any} cache analysis for those policies. *)

type estimate =
  | Exact of int
  | Beyond of int  (** exceeds the probe budget: at least this many *)

val estimate_to_string : estimate -> string

val evict :
  ?jobs:int -> ?engine:[ `Exact | `Fast ] ->
  Cache.Policy.kind -> ways:int -> max_probes:int -> estimate
(** Under [`Exact] (the default), the reference exploration: every
    initial state from {!Cache.Policy.enumerate_full_states} is stepped by
    the persistent {!Cache.Policy.access} on [jobs] worker domains (default
    {!Prelude.Parallel.default_jobs}), one eval per state and probe. Under
    [`Fast], one sequential search for every policy, stepped by
    {!Cache.Policy.packed_step}, that goes one probe depth at a time: the
    never-accessed old blocks collapse to one tag (every policy compares a
    slot only with the accessed tag or with "empty", so the verdicts are
    unchanged), and depth [j] steps by probe [j] only the distinct final
    states of depth [j-1] and each copy of one with an old slot relabelled
    [j]; one eval per transition stepped. Both engines give the same
    estimate, for any job count.
    @raise Invalid_argument on geometries the policy cannot represent, and
    under [`Fast] at the first depth whose tags no longer fit the packed
    int key. *)

val fill :
  ?jobs:int -> ?engine:[ `Exact | `Fast ] ->
  Cache.Policy.kind -> ways:int -> max_probes:int -> estimate
