(** Replacement policies of one cache set, as persistent state machines.

    Persistence matters: the predictability quantifications (Defs. 3-5) and
    the evict/fill metrics of Reineke et al. explore the space of reachable
    set states, which needs cheap state copies and structural equality. *)

type kind = Lru | Fifo | Plru | Mru | Round_robin

val all_kinds : kind list
val kind_name : kind -> string
val kind_ordinal : kind -> int
(** Stable small integer per kind, for packed encodings. *)

type state

val init : kind -> ways:int -> state
(** Empty set. [Plru] requires [ways] in {1, 2, 4, 8}.
    @raise Invalid_argument on unsupported geometry. *)

val ways : state -> int
val kind : state -> kind

val access : state -> int -> bool * state
(** [access s tag] is [(hit, s')]. On a miss the victim chosen by the policy
    is replaced by [tag]. *)

val resident : state -> int -> bool
val contents : state -> int option list
(** Current tags in policy-specific order, padded with [None]. *)

val equal : state -> state -> bool
val pp : Format.formatter -> state -> unit

val pack : state -> int list
(** Canonical integer encoding of the complete state: kind ordinal, ways,
    slot tags in policy order ([-1] for empty), then policy metadata (PLRU
    bits pre-order, MRU bits, RR victim pointer). Injective on states:
    [pack a = pack b] iff [equal a b]. The fast-path engine uses it both as
    a memo-key component and to seed bit-packed replay arrays. *)

val meta_width : kind -> ways:int -> int
(** Words of policy metadata in {!pack}'s metadata section and in a
    {!packed_step} segment: 0 for LRU/FIFO, 1 for round-robin (the victim
    pointer), [ways - 1] for PLRU (tree bits), [ways] for MRU (MRU bits). *)

val packed_step :
  kind -> slots:int array -> base:int -> ways:int ->
  meta:int array -> mbase:int -> int -> bool
(** In-place access on one set stored as a packed segment:
    [slots.(base .. base+ways-1)] are the tags in {!pack}'s slot order
    (-1 = empty), [meta.(mbase .. mbase + meta_width - 1)] is {!pack}'s
    metadata section. Produces exactly {!access}'s hit/miss, and leaves
    {!pack} of {!access}'s successor state, for non-negative tags. *)

val meta_patterns : kind -> ways:int -> int list list
(** Every metadata section, in {!pack}'s layout, that a full set can hold
    (all PLRU tree-bit patterns, all MRU bit patterns but the transient
    all-ones, every RR pointer; one empty section for LRU/FIFO), in the
    order {!enumerate_full_states} pairs them with each arrangement. *)

val enumerate_full_states : kind -> ways:int -> blocks:int list -> state list
(** Every representable state whose ways are all valid and filled with
    pairwise-distinct blocks drawn from [blocks] (contents, order, and
    policy metadata — FIFO order, PLRU bits, MRU bits, RR pointer — all
    enumerated). This is the "completely unknown initial state" space used
    by the evict/fill metrics of Reineke et al. Sizes grow as
    [|blocks| P ways * policy-bits]; intended for small geometries. *)
