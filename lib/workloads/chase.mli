(** Linked-list pointer chase (the Section 5 limitation workload).

    A list of 16-byte nodes threaded through one arena in a
    Lehmer-permuted order: successive nodes share no spatial locality,
    there is no induction variable and no learnable stride, so TrackFM
    can neither chunk nor prefetch — each hop is a dependent load that
    costs a guard on top of whatever the memory system charges. This is
    the canonical pointer-chasing shape the hybrid data plane's route
    pass ({!Trackfm.Route_pass}) moves to the page-fault path. *)

val workload : nodes:int -> Workload.t
(** ["pointer-chase"] over [nodes] nodes. The traversal sums node values
    masked to 30 bits; the setup loop links node [k] at slot
    [k * 48271 mod nodes]. *)
