(** Dynamic preemptive fixed-priority scheduling, simulated cycle by cycle
    over one hyperperiod. Work-conserving and efficient on average, but a
    job's response time depends on the actual demands of every
    higher-priority job that preempts it — the execution context becomes a
    source of uncertainty. *)

exception Deadline_miss of string

val responses : Task.t list -> Task.scenario -> (string * int list) list
(** Per task: response times of its jobs in one hyperperiod under the given
    scenario. @raise Deadline_miss when a job overruns its period. *)
