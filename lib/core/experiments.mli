(** Registry of every experiment reproducing a figure, equation, table row,
    or related-work result of the paper. Ids follow DESIGN.md. *)

val all : (string * string * (unit -> Report.outcome)) list
(** [(id, title, run)] in paper order. *)

val ids : unit -> string list

type result = {
  outcome : Report.outcome;
  timing : Report.timing;  (** wall clock + work counters for this run *)
}

val lookup :
  string -> (string * string * (unit -> Report.outcome), string) Stdlib.result
(** [Ok (id, title, runner)] for a registered id, [Error message] naming
    the unknown id and listing the valid ones (the exact message the CLI
    prints). *)

val run : string -> Report.outcome
(** @raise Invalid_argument for an unknown id, naming it and the valid
    ids. *)

val result_to_json : result -> Prelude.Json.t
(** One flat object per experiment: {!Report.outcome_to_json}'s fields
    merged with {!Report.timing_to_json}'s ([id], [title], [checks],
    [checks_passed], [checks_total], [wall_s], [cells], [evals]). *)

val results_to_json : result list -> Prelude.Json.t
(** Array of {!result_to_json} objects, in registry order. *)

val wall_sum : result list -> float
(** Sum of per-experiment [wall_s]. Under [jobs > 1] experiments overlap,
    so this is CPU-time-flavoured and exceeds true elapsed wall clock —
    report it alongside, never instead of, elapsed time. *)

val to_json : jobs:int -> elapsed_s:float -> result list -> Prelude.Json.t
(** The full machine-readable report document ([schema "predlab/report"],
    [version 1]): job count, true elapsed wall clock, {!wall_sum},
    pass counts, and the per-experiment array. This is what
    [predlab all/stats --format json] print and what [predlab compare]
    consumes. *)

val run_all : ?jobs:int -> unit -> result list
(** Run every experiment, fanned out over [jobs] worker domains (default
    {!Prelude.Parallel.default_jobs}); results are in registry order and
    outcomes are bit-identical for any job count.

    No supervision: a raising runner propagates (after the pool drains).
    The CLI front ends use {!run_supervised} instead. *)

(** {2 Fault-tolerant supervision}

    {!run_supervised} is {!run_all} hardened against the lab's own sources
    of uncertainty: a raising, hanging or injected-fault experiment is
    isolated to its own registry slot, classified
    ({!Report.Crashed}/{!Report.Timed_out}), optionally retried with
    bounded backoff, journaled for crash-safe resume — and the other
    experiments always run to a verdict, in registry order. *)

type supervision = {
  deadline_s : float option;
      (** per-attempt cooperative budget ({!Prelude.Parallel.with_deadline});
          [None] = unlimited *)
  retries : int;  (** extra attempts after a crash/overrun; [0] = none *)
  backoff_s : float;
      (** base sleep before attempt [k+1], doubled per retry, capped at
          1 s *)
}

val default_supervision : supervision
(** No deadline, no retries, 50 ms base backoff. *)

type supervised = {
  s_id : string;
  s_title : string;
  s_status : Report.status;
  s_attempts : int;  (** attempts consumed, [> 1] iff retried *)
  s_resumed : bool;  (** reconstructed from a journal, not re-run *)
  s_outcome : Report.outcome option;
      (** [Some] iff [s_status = Completed]; resumed outcomes carry the
          journaled checks with a placeholder body *)
  s_timing : Report.timing;  (** final (or journaled) attempt *)
}

val run_supervised :
  ?jobs:int -> ?supervision:supervision -> ?journal:string ->
  ?resume:bool -> ?entries:(string * string * (unit -> Report.outcome)) list ->
  unit -> supervised list
(** Run [entries] (default: the full registry) under supervision: exactly
    one record per entry, in entry order, whatever the runners do. Each
    runner passes through the ["experiment:<id>"] {!Prelude.Faults} site
    once per attempt. With [~journal:FILE], every verdict is appended to
    the crash-safe journal as it happens; with [~resume:true] (requires
    [~journal]) ids whose last journal line is [Completed] are not re-run
    but reconstructed from the journal ([s_resumed = true]).
    @raise Invalid_argument on a negative retry/backoff, a non-positive
    deadline, [resume] without [journal], or an unreadable journal. *)

val supervised_failures : supervised list -> supervised list
(** Records with a non-[Completed] status — what makes [predlab] exit 3. *)

val supervised_check_failures : supervised list -> supervised list
(** Completed records with at least one failing check — exit 1. *)

val supervised_wall_sum : supervised list -> float
(** {!wall_sum} over supervised records. *)

val supervised_result_to_json : supervised -> Prelude.Json.t
(** One flat v2 experiment object: the v1 fields plus ["status"] (and its
    ["error"]/["after_s"] detail), ["attempts"], ["resumed"]. *)

val supervised_to_json :
  jobs:int -> elapsed_s:float -> supervised list -> Prelude.Json.t
(** The schema v2 report document ([schema "predlab/report"],
    [version 2]): the v1 summary fields plus [completed]/[crashed]/
    [timed_out]/[retried] counts. [Regression.compare] accepts v1 and v2
    on either side. *)

val supervised_render : supervised -> string
(** Text rendering: {!Report.render} (with retry/resume notes) for
    completed records, a [[CRASHED]]/[[TIMED OUT]] block otherwise. *)
