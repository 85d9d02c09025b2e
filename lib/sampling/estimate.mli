(** Point estimates with confidence intervals — the record every sampling
    estimator in this library returns.

    Two interval constructions are provided, matching the two kinds of
    statistic the estimators produce:

    - {!normal_mean}: normal-approximation (CLT) interval for a sample
      mean — [mean +/- z * sd / sqrt n];
    - {!bootstrap} / {!of_replicates}: {e basic} (reflected) bootstrap
      interval for extreme-value statistics (min/max ratios, tail
      quantiles). The percentile interval is systematically wrong there —
      every resampled extreme lies weakly inside the sample extremes, so
      all replicates fall on one side of the point estimate — while the
      basic interval reflects the replicate spread about the estimate and
      points toward the unseen tail.

    Every interval is widened to contain its own point estimate, and all
    constructions are deterministic given the caller's {!Prelude.Rng}. *)

type ci = {
  lo : float;
  hi : float;
  confidence : float;  (** two-sided coverage target, e.g. [0.99] *)
}

type method_ =
  | Normal  (** normal approximation for a mean *)
  | Bootstrap  (** basic bootstrap over resampled statistics *)
  | Degenerate
      (** no spread information (single sample or zero resamples): the
          interval collapses to the point estimate *)

type t = {
  value : float;
  ci : ci;
  n : int;  (** samples behind the estimate *)
  meth : method_;
}

val normal_quantile : float -> float
(** Standard normal inverse CDF (Acklam's rational approximation,
    ~1.15e-9 absolute error). @raise Invalid_argument outside (0, 1). *)

val degenerate : confidence:float -> n:int -> float -> t

val normal_mean : confidence:float -> float list -> t
(** Mean with normal-approximation CI; degenerate below two samples.
    @raise Invalid_argument on the empty list or a confidence outside
    (0, 1). *)

val of_replicates :
  confidence:float -> n:int -> value:float -> float array -> t
(** Basic bootstrap interval from precomputed replicate statistics (the
    form the stratified and tail estimators use, whose replication is not
    plain row resampling). Degenerate on an empty replicate array.
    @raise Invalid_argument on a confidence outside (0, 1). *)

val bootstrap :
  rng:Prelude.Rng.t -> resamples:int -> confidence:float ->
  stat:('a array -> float) -> 'a array -> t
(** [bootstrap ~rng ~resamples ~confidence ~stat samples]: [stat] of
    [samples] as the point estimate, basic bootstrap over [resamples]
    with-replacement resamples as the interval. Deterministic given
    [rng].
    @raise Invalid_argument on an empty sample array, negative
    [resamples], or a confidence outside (0, 1). *)

val contains : t -> float -> bool
(** [contains e x]: does [e]'s interval contain [x] (up to a relative
    1e-9 epsilon, so exact-endpoint hits never fail on the last ulp)? *)

val to_json : t -> Prelude.Json.t
(** [{"estimate", "ci_lo", "ci_hi", "confidence", "n_samples",
    "method"}] — the report-schema extension fields. Non-finite floats
    render as [null]. *)

val to_string : t -> string
(** e.g. ["0.8125 [0.7734, 0.8125]"]. *)
