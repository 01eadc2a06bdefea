(** Sparse byte-addressable backing storage.

    Both the "local DRAM" and the "remote server" of the simulated cluster
    store real data here, so workloads compute real results (STREAM sums
    check out, hash lookups return the stored values). Pages materialize
    lazily and read as zero before the first write, like anonymous mmap. *)

type t

val create : unit -> t

val load : t -> addr:int -> size:int -> int
(** Little-endian load of 1, 2, 4 or 8 bytes. 8-byte loads fill the OCaml
    63-bit int; the top byte is truncated to keep values non-negative
    tags intact (all simulated data fits 63 bits). *)

val store : t -> addr:int -> size:int -> int -> unit

val load_float : t -> addr:int -> float
val store_float : t -> addr:int -> float -> unit

val load64 : t -> addr:int -> int64
val store64 : t -> addr:int -> int64 -> unit
(** Exact 64-bit accessors for byte movers that must preserve every bit
    ({!load} with [size:8] truncates to 63 bits and would clear the sign
    bit of stored doubles); used by the replication tier's copies and
    checksums. *)

val write_bytes : t -> addr:int -> Bytes.t -> unit
(** Copy bytes into memory starting at [addr], one page-sized
    [Bytes.blit] at a time (used to load input blobs). *)

val blit : t -> src:int -> dst:int -> len:int -> unit
(** Copy a byte range, page-wise (used by realloc). The ranges may
    overlap. *)

val page_size : int
(** Granularity of lazy materialization (4096). *)

val page_bits : int
(** [log2 page_size]. *)

val page_mask : int
(** [page_size - 1]. *)

val page_of : t -> int -> Bytes.t
(** [page_of t idx] is the backing bytes of page [idx], materializing a
    zeroed page on first touch. Pages are never dropped or replaced, so
    the handle stays valid (and authoritative) for the lifetime of [t];
    the compiled execution engine caches it per access site to skip the
    hash lookup on page-local streaks. *)
