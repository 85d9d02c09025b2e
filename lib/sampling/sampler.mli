(** Seeded sampling estimators of the paper's predictability quantities
    over a [Q x I] cell space addressed by index — the scale-past-
    exhaustive layer: where {!Quantify.evaluate} materialises every
    [T_p(q, i)] cell, this module estimates Pr/SIPr/IIPr (Defs. 3-5), the
    mean execution time, and pWCET-style BCET/WCET tails from a sampled
    subset, each with a confidence interval ({!Estimate.t}).

    Determinism contract: results are a pure function of
    [(spec, n_states, n_inputs, time)] — bit-identical across
    [?jobs] 1/2/4/8 and across repeated runs. Every cell draw comes from
    a stream keyed by its {e draw index} ({!Prelude.Rng.split_key}),
    never from worker identity, and the bootstrap streams are keyed
    separately, so scheduling cannot reach any estimate. *)

type spec = {
  n_cells : int;  (** Monte-Carlo [(q, i)] draws (Pr, mean, tails) *)
  per_stratum : int;
      (** state draws per input stratum (SIPr) and input draws per state
          stratum (IIPr) *)
  confidence : float;  (** two-sided CI coverage target, e.g. [0.99] *)
  resamples : int;  (** bootstrap resamples behind each ratio/tail CI *)
  tail_fraction : float;
      (** fraction of samples treated as the tail by the
          peaks-over-threshold estimator *)
  exceed_p : float;
      (** per-run exceedance probability of the extrapolated tail
          quantile *)
  seed : int;
}

val default : spec
(** 384 cells, 32 per stratum, 99% confidence, 200 resamples, 25% tails,
    [1e-3] exceedance. *)

type cell = {
  q : int;  (** state index, in [0, n_states) *)
  i : int;  (** input index, in [0, n_inputs) *)
  t : int;  (** the observed [T_p(q, i)] *)
}

type result = {
  spec : spec;
  n_states : int;
  n_inputs : int;
  cells : cell array;  (** the Monte-Carlo draws, in draw order *)
  pr : Estimate.t;  (** Def. 3 estimate (bootstrap CI) *)
  sipr : Estimate.t;  (** Def. 4, stratified by input (bootstrap CI) *)
  iipr : Estimate.t;  (** Def. 5, stratified by state (bootstrap CI) *)
  mean : Estimate.t;  (** mean execution time (normal-approximation CI) *)
  bcet_tail : Estimate.t;  (** extrapolated lower tail ({!Tail.Lower}) *)
  wcet_tail : Estimate.t;  (** extrapolated upper tail ({!Tail.Upper}) *)
  evals : int;  (** timer evaluations performed *)
}

val run :
  ?jobs:int -> spec:spec -> n_states:int -> n_inputs:int ->
  time:(int -> int -> int) -> unit -> result
(** Draw the sampled cells and compute every estimate. Every coordinate
    (the Monte-Carlo cells and both stratified passes) is drawn on the
    calling domain from its keyed stream, then one
    {!Prelude.Parallel.map_array} on [?jobs] domains (default
    {!Prelude.Parallel.default_jobs}) evaluates all of them. [time q i]
    must be positive and a pure function of its indices; it is checked
    inside the fan-out.
    @raise Invalid_argument on non-positive dimensions, invalid spec
    fields, or a non-positive execution time. *)

val ratio_estimate :
  rng:Prelude.Rng.t -> resamples:int -> confidence:float -> int array ->
  Estimate.t
(** Pr's estimator: the min/max ratio of the times, with a basic bootstrap
    interval over [resamples] with-replacement resamples drawn from [rng].
    Equal to {!Estimate.bootstrap} with the min/max-ratio statistic, bit
    for bit, but each resample's indices are drawn with one
    {!Prelude.Rng.fill} into a buffer reused across resamples, and the
    resample is a running min and max over them rather than an array.
    @raise Invalid_argument on an empty array or negative [resamples]. *)

val stratified_estimate :
  rng:Prelude.Rng.t -> resamples:int -> confidence:float ->
  int array array -> Estimate.t
(** SIPr's and IIPr's estimator: the minimum over strata of each
    stratum's min/max ratio, with a basic bootstrap interval that
    resamples within every stratum (in stratum order) and never across
    them. @raise Invalid_argument on negative [resamples]. *)

val fields : result -> (string * Prelude.Json.t) list
(** One analysis as object fields, for splicing into a report row:
    dimensions, seed, spec, and one {!Estimate.to_json} object
    ([estimate]/[ci_lo]/[ci_hi]/[confidence]/[n_samples]/[method]) per
    quantity, plus the evaluation count. *)
