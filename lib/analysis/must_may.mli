(** Abstract interpretation of LRU caches (Ferdinand-style must/may
    analysis).

    The must cache maps blocks to an upper bound on their LRU age: a bound
    below the associativity guarantees a hit. The may cache maps blocks to a
    lower bound on their age; absence from the may cache guarantees a miss.
    These abstract states are the LB/UB machinery of Figure 1: they are sound
    but incomplete, hence the abstraction-induced margins the figure shows
    around BCET and WCET. *)

type t

val unknown : Cache.Set_assoc.config -> t
(** Completely unknown initial cache state (must empty, may saturated): the
    usual starting point when nothing is known about [Q].
    @raise Invalid_argument on a non-LRU configuration. *)

val cold : Cache.Set_assoc.config -> t
(** Known-empty initial cache (must empty, may empty): models a cache after
    invalidation; allows always-miss classification. *)

type classification = Always_hit | Always_miss | Unclassified

val classification_name : classification -> string

val classify : t -> int -> classification
(** Classify an access by address against the current abstract state. *)

val access : t -> int -> t
(** Abstract transformer for an access to a statically known address. *)

val access_unknown : t -> t
(** Transformer for an access whose address is statically unknown (typical
    for heap data): it may fall in any set, so every must-age increases —
    the precision catastrophe that motivates split caches. *)

val join : t -> t -> t
(** Control-flow join (path merge). *)

val restrict : t -> max_tracked:int -> t
(** Forget must-information beyond the [max_tracked] youngest blocks per
    set — a model of an analysis whose abstract domain has bounded size
    (the paper's refinement "only consider analyses within a certain
    complexity class"). Sound: dropping guarantees can only lose precision.
    May-information is left intact (dropping possible contents would be
    unsound for always-miss classification).
    @raise Invalid_argument if [max_tracked < 0]. *)

val equal : t -> t -> bool

val must_resident_blocks : t -> int list
(** Blocks guaranteed to be cached (for locking/occupancy statistics). *)
