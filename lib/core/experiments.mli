(** Registry of every experiment reproducing a figure, equation, table row,
    or related-work result of the paper. Ids follow DESIGN.md. *)

val all : (string * string * (unit -> Report.outcome)) list
(** [(id, title, run)] in paper order. *)

val ids : unit -> string list

val lookup :
  string -> (string * string * (unit -> Report.outcome), string) Stdlib.result
(** [Ok (id, title, runner)] for a registered id, [Error message] naming
    the unknown id and listing the valid ones (the exact message the CLI
    prints). *)

val run : string -> Report.outcome
(** @raise Invalid_argument for an unknown id, naming it and the valid
    ids. *)

(** {2 Supervised runs}

    {!run_supervised} is the one registry runner: [predlab run], [all],
    [stats] and [chaos], the daemon's [run] op and the bench all go
    through it. It is hardened against the lab's own sources of
    uncertainty: a raising, hanging or injected-fault experiment is
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
(** Run [entries] (default: the full registry) under supervision, fanned
    out over [jobs] worker domains (default
    {!Prelude.Parallel.default_jobs}): exactly one record per entry, in
    entry order, whatever the runners do, with outcomes bit-identical for
    any job count. Each runner passes through the ["experiment:<id>"]
    {!Prelude.Faults} site once per attempt. With [~journal:FILE], every
    verdict is appended to the crash-safe {!Journal} as it happens, as its
    {!supervised_result_to_json} record behind a
    [{"schema":"predlab/journal","version":2}] header; with
    [~resume:true] (requires [~journal]) ids whose last journal line is
    [Completed] are not re-run but decoded from that line
    ([s_resumed = true]). Version 1 lines decode to the same records.
    @raise Invalid_argument on a negative retry/backoff, a non-positive
    deadline, [resume] without [journal], or an unreadable journal. *)

val supervised_failures : supervised list -> supervised list
(** Records with a non-[Completed] status — what makes [predlab] exit 3. *)

val supervised_check_failures : supervised list -> supervised list
(** Completed records with at least one failing check — exit 1. *)

val supervised_wall_sum : supervised list -> float
(** Sum of per-record [wall_s]. Under [jobs > 1] experiments overlap, so
    this is CPU-time-flavoured and exceeds true elapsed wall clock —
    report it alongside, never instead of, elapsed time. *)

val supervised_result_to_json : supervised -> Prelude.Json.t
(** One flat v2 experiment object: [id], [title], ["status"] (and its
    ["error"]/["after_s"] detail), ["attempts"], ["resumed"], [checks],
    [checks_passed], [checks_total], then {!Report.timing_fields}'
    [wall_s], [cells] and [evals]. A journal line carries the same
    fields. *)

val supervised_to_json :
  jobs:int -> elapsed_s:float -> supervised list -> Prelude.Json.t
(** The schema v2 report document ([schema "predlab/report"],
    [version 2]) that [predlab run/all/stats --format json] print: job
    count, true elapsed wall clock, {!supervised_wall_sum}, pass counts,
    [completed]/[crashed]/[timed_out]/[retried] counts and the
    per-experiment array. {!Regression.compare_reports} also still reads
    the older v1 documents (no supervision fields), such as the committed
    [BENCH_0.json] baseline. *)

val supervised_render : supervised -> string
(** Text rendering: {!Report.render} (with retry/resume notes) for
    completed records, a [[CRASHED]]/[[TIMED OUT]] block otherwise, then
    the record's [[wall …]] line ({!Report.timing_string}). *)
