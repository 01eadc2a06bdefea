(** FIFO queue of ints in one growable circular array.

    For long-lived queues on hot paths (the AIFM pool's CLOCK
    candidates, Fastswap's LRU): a [Queue] allocates a cell per push
    that usually outlives a minor collection, so every element it holds
    is promoted. Here a push or pop allocates nothing; only growth does,
    doubling the array. *)

type t

exception Empty

val create : unit -> t

val length : t -> int
val is_empty : t -> bool

val push : t -> int -> unit
(** Add at the back. *)

val pop : t -> int
(** Remove from the front; raises {!Empty} on an empty ring. *)
