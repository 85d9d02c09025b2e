(** Persistent set-associative caches over integer addresses. *)

type config = {
  sets : int;       (** number of sets (power of two recommended) *)
  ways : int;       (** associativity *)
  line : int;       (** line size in address units *)
  kind : Policy.kind;
}

type t

val make : config -> t
(** Empty (cold) cache. @raise Invalid_argument on non-positive geometry. *)

val config : t -> config

val block_of_addr : config -> int -> int
(** Memory block (line tag) an address falls into. *)

val set_of_addr : config -> int -> int

val access : t -> int -> bool * t
(** [access c addr] is [(hit, c')]. *)

val access_seq : t -> int list -> int * int * t
(** Replay an address list; returns [(hits, misses, final_state)]. *)

val resident : t -> int -> bool
(** Whether the line holding this address is currently cached. *)

val equal : t -> t -> bool

val warmed : config -> seed:int -> touches:int -> universe:int list -> t
(** A plausible initial state: a cold cache warmed by [touches] random
    accesses drawn from [universe]. Deterministic in [seed]. *)

val state_samples : config -> universe:int list -> count:int -> seed:int -> t list
(** [count] distinct warmed states (plus the cold state first), used as the
    uncertainty set [Q] over initial hardware states. *)

(** {2 Mutable replay}

    The persistent {!access} copies the per-set state array on every access;
    a replay is a mutable working copy for the fast-path hot loop: every
    set flattens to {!Policy.pack}'s tag and metadata words in plain
    [int array]s, stepped in place by {!Policy.packed_step}. Replays assume
    non-negative addresses (every real address stream). A replay's accesses
    produce exactly the hit/miss sequence of the persistent cache it was
    built from — pinned by the test suite. *)

type replay

val replay : t -> replay
(** Mutable working copy of the cache's current state. *)

val replay_copy : replay -> replay

val replay_reset : dst:replay -> src:replay -> unit
(** Overwrite [dst] with [src]'s state without allocating. The two must
    come from caches of identical geometry and kind. *)

val replay_access : replay -> int -> bool
(** [replay_access r addr] is the hit/miss result of {!access}, updating
    [r] in place. *)

val pack : t -> int list
(** Canonical integer encoding of geometry, kind, and every set's
    {!Policy.pack} — injective on cache states; the fast-path engine's
    memo-key component for cached memory levels. *)
