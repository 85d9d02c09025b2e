(** Experiment outcomes: a rendered result body plus the machine-checked
    assertions ("who wins, by roughly what factor") that define successful
    reproduction of each figure/table row. *)

type check = {
  label : string;
  passed : bool;
}

type outcome = {
  id : string;       (** experiment id from DESIGN.md (e.g. "TAB1.R3") *)
  title : string;
  body : string;     (** rendered tables / series / histograms *)
  checks : check list;
}

type timing = {
  wall_s : float;  (** wall-clock seconds for the experiment run *)
  cells : int;     (** [Q * I] matrix cells materialised *)
  evals : int;     (** kernel evaluations: [T_p(q,i)] calls, states explored *)
}
(** Per-experiment instrumentation, recorded by
    {!Experiments.run_supervised} around each runner attempt. *)

type status =
  | Completed  (** the runner returned an outcome (checks may still fail) *)
  | Crashed of { error : string }
      (** the runner raised; [error] is [Printexc.to_string] of the final
          attempt's exception *)
  | Timed_out of { after_s : float }
      (** the runner overran its cooperative deadline (or hit an armed
          [Timeout] fault site); [after_s] is the elapsed time at
          detection *)
(** Supervision verdict for one experiment under
    {!Experiments.run_supervised}: the failure taxonomy of the fault-
    tolerant runner. Retries are not a distinct status — a retried
    experiment ends in one of these with [attempts > 1]. *)

val check : string -> bool -> check
val all_passed : outcome -> bool
val render : outcome -> string

val timing_string : timing -> string
(** e.g. ["wall 0.123s  Q*I cells 540  kernel evals 540"]. *)

val check_to_json : check -> Prelude.Json.t
(** [{"label": ..., "passed": ...}]. *)

val outcome_to_json : outcome -> Prelude.Json.t
(** [{"id", "title", "checks", "checks_passed", "checks_total"}] — the
    machine-readable counterpart of {!render} (the rendered [body] is text
    evidence and deliberately omitted; checks are the machine-checked
    part). *)

val timing_to_json : timing -> Prelude.Json.t
(** [{"wall_s", "cells", "evals"}]. *)

val status_string : status -> string
(** ["completed"] / ["crashed"] / ["timed_out"] — the wire names used in
    schema v2 and the journal. *)

val status_fields : status -> (string * Prelude.Json.t) list
(** The v2 fields describing a status, for splicing into an experiment
    object: always [("status", ...)]; plus [("error", ...)] for
    {!Crashed} or [("after_s", ...)] for {!Timed_out}. *)

val status_to_json : status -> Prelude.Json.t
(** {!status_fields} wrapped in an object (the journal line format). *)

val status_of_json : Prelude.Json.t -> (status, string) Stdlib.result
(** Reads {!status_fields} back from an experiment/journal object. An
    object without a ["status"] field is a v1 record and parses as
    {!Completed} — this is what keeps schema v1 reports readable by the
    v2-aware tools. *)
