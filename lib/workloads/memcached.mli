(** Memcached-style in-memory key-value store (Section 4.5, Figure 16).

    Models memcached 1.2.7 as the paper exercises it: a hash table over
    slab-allocated value blocks (the region allocator's size classes
    reproduce the slab batching the paper observed limiting TrackFM's
    I/O-amplification win), USR-like small values, and a Zipf-skewed get
    trace whose skew parameter is the Figure 16 x-axis. Each get probes
    the table, chases the value pointer and reads the whole value —
    pointer-chasing with almost no spatial locality and high sensitivity
    to the architected page size under Fastswap. *)

type params = {
  keys : int;
  value_size : int; (** bytes; multiple of 8 (USR-like default 64) *)
  gets : int;
  skew : float;
  seed : int;
  service_cycles : int;
      (** per-request CPU cost (parsing, protocol, dispatch) that touches
          no remotable memory; dominates absolute throughput exactly as
          the request-processing path does in real memcached, so the
          memory system moves throughput by the 20-80%% margins of
          Figure 16 rather than by orders of magnitude *)
}

val default_params : keys:int -> gets:int -> skew:float -> params

val workload : params -> Workload.t
(** ["memcached"]. Its blob 0 is the Zipf-sampled get trace, 4 bytes per
    get (the key); its span operation class 0 is one get request. *)
