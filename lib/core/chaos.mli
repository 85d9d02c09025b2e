(** Seeded chaos campaigns over the experiment registry.

    The paper's thesis is that predictability is a property of behaviour
    under sources of uncertainty; [predlab chaos] applies that discipline
    to the laboratory itself. A campaign derives a seed-deterministic
    fault plan over every experiment's injection site (plus the fan-out's
    ["parallel.spawn"] site), runs the registry under supervision twice —
    once with {e persistent} faults and no retries, once with {e
    transient} (fire-once) faults and one retry — and checks that the
    supervisor degraded gracefully:

    - {b no lost experiments}: exactly one record per registry entry in
      both phases;
    - {b registry order preserved};
    - {b correct taxonomy}: a persistently-[Raise]d experiment is
      [Crashed], a persistently-[Timeout]ed one is [Timed_out], and every
      other experiment (delayed, spawn-faulted or untouched) is
      [Completed] with all checks passing;
    - {b retries recover transients}: under fire-once faults with one
      retry, {e every} experiment completes, faulted ones on attempt 2.

    Any unmet expectation is a {!violation} — a defect in the supervision
    layer, not in the experiments — and makes [predlab chaos] exit 4. *)

type violation = {
  subject : string;  (** experiment id or campaign-level subject *)
  detail : string;
}

type verdict = {
  seed : int;
  plan : Prelude.Faults.site list;
      (** the armed sites, in registry order (empty = benign seed) *)
  persistent : Experiments.supervised list;
      (** phase 1: faults fire on every attempt, retries 0 *)
  transient : Experiments.supervised list;
      (** phase 2: faults fire once, retries 1 *)
  violations : violation list;  (** empty = graceful degradation held *)
}

val run :
  ?jobs:int ->
  ?entries:(string * string * (unit -> Report.outcome)) list ->
  seed:int -> unit -> verdict
(** Run the campaign for [seed] over [entries] (default: the registry).
    Arms and disarms the global {!Prelude.Faults} plane around each phase;
    the previous plan is not restored (callers running under their own
    injection should re-arm). *)

val verdict_to_json : verdict -> Prelude.Json.t
(** Schema [predlab/chaos] v1: seed, the plan (site/action strings), both
    phases' v2 experiment arrays, and the violations. *)

val render : verdict -> string
(** Human-readable summary: the plan, per-phase status counts, and either
    the violations or a graceful-degradation confirmation. *)
