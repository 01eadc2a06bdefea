(** Sparse byte-addressable backing storage.

    Both the "local DRAM" and the "remote server" of the simulated cluster
    store real data here, so workloads compute real results (STREAM sums
    check out, hash lookups return the stored values). Pages materialize
    lazily and read as zero before the first write, like anonymous mmap.

    Pages live in an int-keyed table behind a direct-mapped cache of
    4096 page handles: page [i] can only occupy slot [i mod 4096], so
    pages [i] and [i + 4096 k] evict each other and every other access
    finds its page by one tag compare, without hashing. The cache costs
    64 KiB per store and is not configurable. *)

type t

val create : unit -> t

val load : t -> addr:int -> size:int -> int
(** Little-endian load of 1, 2, 4 or 8 bytes, within a page or across a
    page boundary alike. 8-byte loads fill the OCaml 63-bit int: the
    top bit is cleared, so values stay non-negative (all simulated data
    fits 63 bits). Any other size raises [Invalid_argument]. *)

val store : t -> addr:int -> size:int -> int -> unit
(** Little-endian store of the low 1, 2, 4 or 8 bytes of the value; any
    other size raises [Invalid_argument]. *)

val load_float : t -> addr:int -> float
val store_float : t -> addr:int -> float -> unit

val load_float_into : t -> addr:int -> float array -> int -> unit
(** [load_float_into t ~addr regs i] is [regs.(i) <- load_float t ~addr]
    without boxing the float on the way: the compiled engine's float
    register file takes loads this way. *)

val store_float_from : t -> addr:int -> float array -> int -> unit
(** [store_float_from t ~addr regs i] is [store_float t ~addr regs.(i)]
    without boxing. *)

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
