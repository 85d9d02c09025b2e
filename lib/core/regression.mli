(** The performance/correctness regression gate behind [predlab compare]:
    diff two machine-readable report documents (a committed [BENCH_*.json]
    trajectory point, or [predlab --format json] output) and flag anything
    that got worse.

    Both report schema versions are accepted on either side: v1 (plain
    [Experiments.to_json] results) and v2 ([Experiments.supervised_to_json],
    with per-experiment supervision status); any other [version] is a
    schema finding. A v2 experiment that crashed or timed out while its
    baseline counterpart completed is a check regression even before its
    (empty) check list is compared.

    Gated conditions, per experiment paired by [id]:
    - {e check regressions} — a reproduction check that passed in the
      baseline but fails (or disappeared) in the current report, or an
      experiment that stopped completing. Always gated, regardless of
      tolerance.
    - {e slowdowns} — current [wall_s] exceeding baseline by more than the
      tolerance (percent). Only armed when the baseline wall clock is above
      a noise floor (10 ms), so micro-experiments don't trip on jitter.
    - {e missing experiments} — present in baseline, absent in current.

    When {e both} documents carry a [kernels] array (bench [--json]
    output), per-kernel [ns_per_run] is gated the same way (1 ns floor);
    otherwise the microbenchmark section is skipped, so a fast
    [predlab stats --format json] run can be compared against a full
    [bench --json] baseline.

    The current document must also pass {!fast_gate}.

    New experiments/kernels that only exist in the current report are
    never findings: the gate is one-sided, guarding what the baseline
    already demonstrated. *)

type kind =
  | Schema            (** document missing required structure *)
  | Missing           (** experiment/kernel dropped relative to baseline *)
  | Check_regression  (** reproduction check flipped to failing *)
  | Slowdown          (** timing beyond tolerance *)

type finding = {
  kind : kind;
  subject : string;  (** experiment id or kernel name ("baseline"/"current"
                         for document-level schema findings) *)
  detail : string;
}

val kind_string : kind -> string
val finding_string : finding -> string
(** ["[slowdown] FIG1: 0.120s -> 0.360s (+200%, tolerance 50%)"]. *)

val fast_gate : Prelude.Json.t -> finding list
(** One [Check_regression] finding when the document has fast-engine
    kernels ([engine: "fast"]) but no completed FIG1.FAST experiment with
    every check passed; empty otherwise. *)

val compare_reports :
  ?tolerance_pct:float ->
  baseline:Prelude.Json.t -> current:Prelude.Json.t -> unit -> finding list
(** Empty list = gate passes. [tolerance_pct] defaults to 50 (a current
    timing up to 1.5x baseline is tolerated).
    @raise Invalid_argument on a negative tolerance. *)
