(** K-means clustering (Section 4.2, Figure 8).

    Dimension-major ("structure of arrays") layout like the paper's
    benchmark: the hot distance phase is long unit-stride scans over the
    point and distance arrays (high object density — chunking pays), while
    the per-point argmin and centroid-update phases run many short loops
    (a handful of iterations per entry) whose chunk setup can never be
    amortized — the loops that make indiscriminate chunking a slowdown
    and that the profile-driven cost-model gate must filter out.

    The program's float arithmetic is replicated exactly by the record's
    host oracle, an OCaml reference implementation (same operation
    order), so all backends can be validated bit-for-bit. *)

type params = {
  n : int;        (** number of points *)
  dims : int;     (** coordinates per point (paper-scale: 4) *)
  clusters : int;
  iters : int;    (** fixed Lloyd iterations *)
}

val default_params : n:int -> params
(** dims = 4, clusters = 10, iters = 2. *)

val workload : params -> Workload.t
(** ["kmeans"]; its span operation class 0 is one Lloyd iteration. *)
