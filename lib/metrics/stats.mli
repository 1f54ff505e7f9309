(** Sample statistics with 95% confidence intervals.

    The paper presents every bursty-workload data point as a mean over
    10 random graphs with its 95% confidence interval; this module
    reproduces that reduction using the Student t distribution (the
    samples are small, so the normal approximation would understate the
    intervals). *)

type summary = {
  n : int;
  mean : float;
  stddev : float;  (** Sample standard deviation (n-1 denominator). *)
  ci95 : float;
      (** Half-width of the 95% confidence interval of the mean;
          [0.] for fewer than two samples. *)
}

val summarize : float list -> summary
(** Raises [Invalid_argument] on an empty sample. *)

val mean : float list -> float

val stddev : float list -> float

val t_critical : int -> float
(** [t_critical df] is the two-sided 97.5th-percentile Student-t value
    for [df] degrees of freedom (exact table for df ≤ 30, 1.96
    asymptote beyond).  [df >= 1]. *)

val percentile : float list -> float -> float
(** [percentile xs p] for [p] in [\[0, 100\]], by linear interpolation
    on the sorted sample. *)

val nearest_rank : float list -> float -> float
(** [nearest_rank sorted q] for [q] in [\[0, 1\]]: the [ceil (q * n)]-th
    smallest of an ascending [sorted] sample of size [n] (rank clamped
    to [\[1, n\]]), no interpolation; [0.] on the empty sample. *)

