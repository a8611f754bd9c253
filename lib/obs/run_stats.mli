(** Run-quality statistics: confidence intervals over replications, batch
    means for single long runs, and a Welch-style warmup-adequacy
    diagnostic over a {!Series}-shaped sampled curve.

    Everything is dependency-free numerics: the Student-t quantile comes
    from the regularized incomplete beta function and a bisection
    inversion, accurate to well below 1e-6 — far tighter than the
    intervals themselves at simulation replication counts. *)

(** {1 Student-t distribution} *)

(** CDF of Student's t with [df] degrees of freedom. *)
val t_cdf : df:float -> float -> float

(** [t_quantile ~df p] is the inverse CDF; e.g.
    [t_quantile ~df:10.0 0.975 = 2.2281...].  Raises [Invalid_argument]
    unless [0 < p < 1] and [df > 0]. *)
val t_quantile : df:float -> float -> float

(** {1 Confidence intervals} *)

type ci = {
  ci_n : int;  (** observations the interval is built from *)
  ci_mean : float;
  ci_half : float;  (** half-width; [nan] when [ci_n < 2] *)
  ci_confidence : float;
}

(** [mean_ci ?confidence xs] is the Student-t interval for the mean of
    [xs] (default 95 %).  With fewer than two observations the interval
    is unavailable: [ci_half] is [nan] and {!available} is [false] — a
    single replication has no dispersion information. *)
val mean_ci : ?confidence:float -> float array -> ci

(** Does the interval carry information ([ci_n >= 2])? *)
val available : ci -> bool

(** Interval endpoints ([nan] when not {!available}). *)
val ci_lo : ci -> float

val ci_hi : ci -> float

(** Half-width relative to |mean|; [None] when unavailable or mean 0. *)
val rel_half_width : ci -> float option

(** Mean relative half-width over the cells that have one — the pooled
    precision of a whole figure. *)
val pooled_rel_half_width : ci list -> float option

(** Half-width formatted with [digits] decimals (default 3), or ["n/a"]
    when the interval is unavailable — the "±n/a" convention every
    report column uses at [reps = 1]. *)
val half_string : ?digits:int -> ci -> string

(** {1 Batch means}

    For a single long run there are no replications to compare, but the
    post-warmup observation stream can be chopped into contiguous batches
    whose means are approximately independent. *)

(** [batch_means ?confidence ?batches xs] (default 20 batches, clamped to
    [length xs / 2]) — [None] when [xs] has fewer than 4 observations.
    When the stream does not divide evenly the oldest remainder
    observations are dropped. *)
val batch_means : ?confidence:float -> ?batches:int -> float array -> ci option

(** {1 Warmup adequacy (Welch's procedure)} *)

type warmup = {
  wu_samples : int;
  wu_warmup_end : float;  (** configured warmup boundary, simulated s *)
  wu_settle : float option;
      (** earliest sampled time from which the smoothed curve stays
          within the steady-state band; [None] = never settles *)
  wu_tail_mean : float;  (** steady-state estimate (mean of last half) *)
  wu_adequate : bool;
      (** settle time <= warmup end (vacuously true under 4 samples) *)
}

(** Centered moving average with half-window [window]. *)
val moving_average : window:int -> float array -> float array

(** [warmup_diagnostic ?band ?window ~warmup_end ~times values] smooths
    [values] (a fixed-interval sampled curve, e.g. one {!Series} column)
    with a centered moving average (default half-window [n/10]), takes
    the mean of the last half as the steady-state estimate, and finds the
    earliest time after which the smoothed curve stays within [band]
    (default 5 %, relative to max(|tail mean|, spread)) of it.  The
    warmup was adequate if that settle time falls inside the warmup
    window. *)
val warmup_diagnostic :
  ?band:float ->
  ?window:int ->
  warmup_end:float ->
  times:float array ->
  float array ->
  warmup
