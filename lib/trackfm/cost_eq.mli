(** The loop-chunking cost model (Section 3.4, Equations 1–3).

    With object density [d] (collection elements per TrackFM object), the
    per-object guard cost of a loop is

    - naive:   C    = (d-1)·cf + cs          (Eq. 1)
    - chunked: Copt = (d-1)·cb + cl          (Eq. 2)

    so chunking pays off iff [d > (cs - cl) / (cb - cf)] (Eq. 3).

    The paper couples this with NOELLE profiles because static density is
    not sufficient: a loop over a dense array that only runs a handful of
    iterations per entry (k-means' nested loops, the analytics
    aggregations) cannot amortize the chunk-entry runtime call. The
    profiled gate below generalizes Eq. 3 to measured trip counts; it
    reduces to Eq. 3 when a loop entry walks exactly one full object. *)

val chunk_entry_cost : Cost_model.t -> int
(** Cost of entering a chunked loop: the [chunk_init] runtime call plus
    the initial locality invariant guard. *)

val naive_cost_per_object : Cost_model.t -> density:int -> int
(** Equation 1. *)

val chunked_cost_per_object : Cost_model.t -> density:int -> int
(** Equation 2. *)

val density_threshold : Cost_model.t -> float
(** Right-hand side of Equation 3. *)

val should_chunk_static : Cost_model.t -> density:int -> bool
(** Equation 3: density strictly above the threshold. *)

val should_chunk_profiled :
  Cost_model.t -> density:int -> avg_trip:float -> bool
