(** Lightweight per-domain counters for experiment instrumentation.

    The hot kernels ({!Quantify.evaluate}-style [Q * I] sweeps and
    replacement-policy state explorations) report how much work they did by
    bumping these counters; the experiment harness snapshots them around
    each run and attributes the {e delta} to that experiment.

    Counters live in domain-local storage and grow monotonically — there is
    deliberately no reset, so a domain interleaving several experiments'
    tasks never wipes or double-counts another task's contribution. An
    experiment running on one domain never sees the counts of an experiment
    running concurrently on another. A {!Parallel} helper domain starts at
    zero, and when its fan-out joins, its total is credited once to the
    calling domain, after the caller's own share of the tasks has run, so
    aggregate counts on the caller stay consistent with the per-experiment
    deltas. *)

type counts = {
  evals : int;  (** kernel evaluations: [T_p(q,i)] calls, states explored *)
  cells : int;  (** [Q * I] matrix cells materialised *)
  memo_hits : int;    (** fast-path [T_p] cells answered from the memo table *)
  memo_misses : int;  (** fast-path [T_p] cells that had to be replayed *)
}

val snapshot : unit -> counts
(** The calling domain's counters (cumulative since the domain started;
    callers wanting per-phase numbers take deltas between snapshots). *)

val add_evals : int -> unit
val add_cells : int -> unit
val add_memo_hits : int -> unit
val add_memo_misses : int -> unit

val now : unit -> float
(** Monotonic seconds ({!Mono.now}): safe for interval and deadline math,
    immune to NTP/wall-clock adjustment. Readings are relative to an
    arbitrary process-lifetime origin — take differences, never treat one
    as a timestamp. *)
