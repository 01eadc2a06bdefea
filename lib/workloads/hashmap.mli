(** Zipfian hashmap lookups (Sections 4.3 and 4.4, Figures 9 and 13).

    An open-addressing (linear probing) hash table with 4-byte keys and
    values, modelling the paper's C++ STL [unordered_map] microbenchmark:
    high temporal locality (a Zipf-skewed hot set), essentially no
    spatial locality (multiplicative hashing scatters adjacent keys), and
    very small access granularity — the workload where small TrackFM
    object sizes shine and page-granularity Fastswap suffers 43x I/O
    amplification.

    The Zipf-ordered access trace is generated host-side (see
    {!trace_blob}) and loaded into a heap array by the program, matching
    the paper's setup where the 190 MB trace array itself lives on the
    heap and contributes to memory pressure. *)

type params = {
  keys : int;      (** distinct keys (ranks 0..keys-1; rank 0 hottest) *)
  lookups : int;
  skew : float;    (** Zipf skew (paper: 1.02 for Fig 9/13) *)
  seed : int;
}

val default_params : keys:int -> lookups:int -> params
(** skew 1.02, fixed seed. *)

val trace_blob : params -> Bytes.t
(** 4 bytes per lookup: the key of each access, Zipf-sampled. Register as
    blob 0. *)

val build : params -> unit -> Ir.modul

val working_set_bytes : params -> int
(** Table plus trace array. *)

val checksum : params -> int

val workload : params -> Workload.t
(** ["hashmap"], reading {!trace_blob} as blob 0; its span operation
    class 0 is one lookup. *)
