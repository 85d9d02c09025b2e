(** Branch predictors: static schemes (no state, hence no state-induced
    variability, and trivially analyzable — the Bodin-Puaut / Burguière-
    Rochange position) and dynamic schemes (stateful tables whose initial
    contents are a source of uncertainty).

    A branch execution is summarised as [(pc, backward, taken)]: the static
    position of the branch, whether its target precedes it (loop back-edge),
    and the actual outcome. *)

type branch_event = {
  pc : int;
  backward : bool;
  taken : bool;
}

type static_scheme =
  | Always_taken
  | Always_not_taken
  | Btfn                       (** backward taken, forward not-taken *)
  | Per_branch of (int * bool) list
      (** explicit per-branch direction (pc, predict-taken); unlisted
          branches predict not-taken *)

type t

val static : static_scheme -> t
val one_bit : entries:int -> init:int -> t
(** 1-bit history table; [init] seeds the table contents (0 = all not-taken,
    1 = all taken, other values give a mixed deterministic pattern). *)

val two_bit : entries:int -> init:int -> t
(** 2-bit saturating counters, the classic bimodal predictor. *)

val gshare : entries:int -> history_bits:int -> init:int -> t

val describe : t -> string

val predict : t -> branch_event -> bool
(** Predicted direction for the branch (ignores [taken]). *)

val update : t -> branch_event -> t
(** Train on the actual outcome. *)

val run : t -> branch_event list -> int * t
(** Replay a branch trace; returns the misprediction count and final state. *)

val initial_states : t -> t list
(** Representative initial-state set [Q] for the predictor: for static
    schemes this is the singleton (stateless); for dynamic schemes, a family
    of table initialisations. *)

val wcet_oriented : branch_event list list -> static_scheme
(** Derive a Bodin-Puaut-style static assignment from a set of execution
    traces: each branch predicts its majority outcome across all traces,
    minimising the worst-case misprediction count among the given paths. *)

(** {2 Mutable replay}

    {!update} copies the counter table per trained branch; a replay steps
    one mutable working copy in place, producing exactly the
    correct/incorrect sequence of [predict]/[update] — pinned by the test
    suite. *)

type replay

val replay : t -> replay
val replay_copy : replay -> replay

val replay_reset : dst:replay -> src:replay -> unit
(** Overwrite [dst] with [src]'s state without allocating (same scheme
    shape required). @raise Invalid_argument on mismatched replays. *)

val replay_correct : replay -> branch_event -> bool
(** Whether the prediction was correct for this event; trains in place. *)

val pack : t -> int list
(** Canonical integer encoding of the complete predictor state (scheme,
    table contents, history) — injective; a fast-path memo-key
    component. *)
