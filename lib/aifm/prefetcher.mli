(** AIFM's runtime stride prefetcher.

    Watches the stream of accessed object ids; once a stride repeats, it
    issues asynchronous prefetches for the next [depth] objects in the
    stream, so subsequent demand accesses pay only the overlapped residual
    cost. TrackFM's compiler-directed prefetching (Section 4.3) drives the
    same machinery, but keyed by the loop-chunking pass's static stride
    instead of a learned one. *)

type t

val create : Pool.t -> ?depth:int -> unit -> t
(** Tracks 8 concurrent stride streams; [depth] objects are prefetched
    ahead (default 8). *)

val access : t -> int -> unit
(** Observe an access to an object id, learning strides and issuing
    prefetches as confidence is established. *)
