(** Sampled predictability analysis of registered workloads — the bridge
    between the generic estimators ({!Sampling.Sampler}) and the lab's
    in-order machine. Builds the standard uncertainty sets, runs the
    seeded estimators through the fast-path engine, and can compute the
    exhaustive quantities next to them for cross-checking. Shared by the
    [predlab sample] CLI and the DEF.SAMPLE oracle experiment. *)

val input_cap : int
(** Inputs per workload (24) in the standard space that FIG1.SOUND,
    FIG1.FAST, DEF.SAMPLE, DEF.CERT and the serve daemon share, so an
    exhaustive sweep of the registry stays cheap. *)

type exhaustive = {
  x_pr : Prelude.Ratio.t;
  x_sipr : Prelude.Ratio.t;
  x_iipr : Prelude.Ratio.t;
  x_bcet : int;
  x_wcet : int;
  x_mean : float;
}
(** Ground truth from the full [Q x I] matrix (Defs. 3-5 plus extremes
    and mean). *)

type row = {
  workload : string;
  n_states : int;
  n_inputs : int;
  sampled : Sampling.Sampler.result;
  exhaustive : exhaustive option;  (** present iff [cross_check] *)
}

val analyze :
  ?jobs:int -> ?spec:Sampling.Sampler.spec -> ?cross_check:bool ->
  string * (unit -> Isa.Workload.t) -> row
(** Analyze one registry entry (default spec {!Sampling.Sampler.default},
    default [cross_check:false]). Both passes share one fast-path timer,
    so the exhaustive sweep reuses the sampled cells' memo entries.
    Deterministic for fixed [(spec, workload)] — bit-identical across
    [jobs] and repeated runs. *)

(** {2 Containment verdicts}

    Each is [true] when the exhaustive value lies inside the sampled
    estimate's CI — and vacuously [true] without a cross-check. *)

val pr_contained : row -> bool
val sipr_contained : row -> bool
val iipr_contained : row -> bool
val mean_contained : row -> bool

val tails_bracket : row -> bool
(** The extrapolated tails bracket the exhaustive range from outside:
    lower tail estimate at or below [BCET], upper at or above [WCET].
    (The pWCET-style quantiles are deliberately conservative on a finite
    [Q x I] space, so CI containment would be the wrong check.) *)

val all_contained : row -> bool

val row_to_json : row -> Prelude.Json.t

val report_to_json : jobs:int -> row list -> Prelude.Json.t
(** The [predlab sample --format json] document:
    [{"schema": "predlab/sample", "version": 1, "jobs", "workloads"}],
    each workload carrying [estimate]/[ci_lo]/[ci_hi]/[n_samples]/[seed]
    per quantity plus (under cross-check) the exhaustive values and
    containment verdicts. *)

val render : row -> string
(** Human-readable block: one line per quantity, with the exhaustive
    value and an inside/OUTSIDE verdict when cross-checked. *)
