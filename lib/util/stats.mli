(** Small statistics helpers used by the benchmark harness. *)

val mean : float array -> float
(** Arithmetic mean. Requires a non-empty array. *)

val geomean : float array -> float
(** Geometric mean. Requires a non-empty array of positive values. *)

val median : float array -> float
(** Median (does not mutate the input). Requires a non-empty array. *)

val percentile : float array -> float -> float
(** [percentile a p] for [p] in [\[0, 100\]], nearest-rank method.
    [p = 0] yields the sample minimum and [p = 100] the maximum; a
    single-element sample returns that element for every [p]. Raises
    [Invalid_argument] on an empty sample or [p] outside the range. *)

val minimum : float array -> float
val maximum : float array -> float

val pearson : float array -> float array -> float
(** Pearson correlation coefficient of two equal-length samples; used by
    the benches to quantify the paper's "event counts strongly correlate
    with overall performance" claims (Figures 14b/16b). Raises
    [Invalid_argument] on mismatched lengths, fewer than two
    observations, or a constant sample (zero variance leaves the
    coefficient undefined). *)
