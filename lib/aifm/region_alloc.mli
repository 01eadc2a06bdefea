(** Region-based heap allocator over simulated addresses.

    AIFM backs remotable memory with a region allocator; TrackFM's libc
    transformation routes [malloc]/[calloc]/[realloc]/[free] here so every
    heap allocation lands in the far-memory address range (Section 3.2).
    Small requests are served from power-of-two size-class free lists; a
    freed block is recycled within its class. Large requests (64 KiB and
    up) bump-allocate page-granular regions.

    The allocator hands out raw simulated addresses starting at [base];
    callers add the non-canonical tag themselves if they need tagged
    pointers. *)

type t

val create : base:int -> t

val alloc : t -> int -> int
(** [alloc t n] returns the address of an [n]-byte block, 16-byte aligned.
    [n] must be positive. *)

val free : t -> int -> unit
(** @raise Invalid_argument on a double free or an address not returned by
    [alloc]. *)

val size_of : t -> int -> int
(** Usable size of a live allocation (its rounded size class). *)

val requested_size_of : t -> int -> int
(** The size originally passed to [alloc] (needed by realloc copying). *)

val high_watermark : t -> int
(** One past the highest address ever handed out; the heap span that the
    object state table must cover. *)
