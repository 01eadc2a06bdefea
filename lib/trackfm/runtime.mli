(** The TrackFM runtime: the thin layer the compiler injects between the
    transformed application and the AIFM object pool (Sections 3.1–3.3).

    Responsibilities:
    - a custom malloc that returns non-canonical pointers backed by
      AIFM's region allocator, chunking each allocation into pool objects;
    - the object state table that lets guards resolve object metadata
      with one indexed lookup instead of AIFM's two dependent references
      (modelled with a direct-mapped metadata-cache so the cached vs
      uncached guard costs of Table 1 emerge);
    - the guard entry points (custody check, fast path, slow path);
    - the loop-chunking support calls (locality invariant guard that pins
      the current object, boundary checks, compiler-directed prefetch).

    All costs are charged to the shared {!Memsim.Clock}; event counts are
    published as clock counters:
    [tfm.fast_guards], [tfm.slow_guards], [tfm.custody_skips],
    [tfm.boundary_checks], [tfm.locality_guards], [tfm.chunk_inits],
    [tfm.state_table_misses], [tfm.page_accesses]. *)

type t

val create :
  ?use_state_table:bool ->
  ?prefetch:bool ->
  ?size_classes:(int * int * float) list ->
  ?policy:Pool.policy ->
  ?telemetry:Telemetry.Sink.t ->
  ?faults:Faults.t ->
  ?cluster:Cluster.t ->
  Cost_model.t ->
  Clock.t ->
  Memstore.t ->
  object_size:int ->
  local_budget:int ->
  t
(** [cluster] routes every size class's slow-path fetches and evacuator
    writebacks through the replicated remote tier (shared across
    classes, keyed by object base address); recovery resync is driven
    from the evacuator loop.

    [use_state_table=false] ablates the Section 3.2 optimization: every
    guard then pays the extra dependent metadata reference. [prefetch]
    enables the compiler-directed stride prefetch issued from chunk
    boundaries (default true). Every size class's transport is [Tcp]
    (AIFM's Shenango stack).

    [size_classes] enables the multi-object-size extension the paper
    leaves as future work (Section 3.2): each entry is
    [(max_alloc_bytes, object_size, budget_share)] — an allocation goes
    to the first class whose [max_alloc_bytes] it fits, the class's pool
    receives [budget_share] of the local budget, and the class index is
    encoded in bits 57-58 of the pointer so guards stay a few shifts. At
    most 4 classes; the last must have [max_alloc_bytes = max_int]. When
    omitted, one class of [object_size] objects is used (the paper's
    configuration). *)

val telemetry : t -> Telemetry.Sink.t
(** The runtime's telemetry sink ({!Telemetry.Sink.nop} by default).
    Guards report each outcome to it with the cycle and network-byte
    deltas they caused, attributed to the current IR site the
    interpreter tagged; the pools report fetches/writebacks/evictions.
    Recording never charges simulated cycles. *)

val set_telemetry : t -> Telemetry.Sink.t -> unit
(** Swap the sink (also on every size class's pool). *)

val pool : t -> Pool.t
(** The first size class's pool (the only one by default). *)

val pools : t -> Pool.t list

val size_class_count : t -> int
val clock : t -> Clock.t
val object_size : t -> int

(** {1 Allocation (libc replacements)} *)

val tfm_malloc : t -> int -> int
(** Returns a tagged non-canonical pointer; the covered objects
    materialize locally (fresh memory needs no fetch) and are immediately
    subject to eviction under the local budget. *)

val tfm_calloc : t -> int -> int -> int
val tfm_realloc : t -> int -> int -> int
val tfm_free : t -> int -> unit

val state_table_bytes : t -> int
(** Current size of the object state table (8 B per object over the heap
    high-watermark), the overhead computed in Section 3.2. *)

(** {1 Guards} *)

val guard : t -> ptr:int -> size:int -> write:bool -> unit
(** The compiler-injected guard: custody check; if tracked, fast path
    when the object is local, slow path (runtime call, possibly a remote
    fetch) otherwise. Also localizes the second object when the access
    spans an object boundary. *)

val page_access : t -> ptr:int -> size:int -> write:bool -> unit
(** The hybrid data plane's other mechanism: an access the route pass
    moved off the guard path ([tfm_page_read]/[tfm_page_write]). Same
    custody filter as {!guard} for untracked pointers; tracked pointers
    swap through a lazily created Fastswap-style pager sharing this
    run's clock, fault injector and cluster — page-granular faults with
    kernel-path costs instead of object-granular guards. Counter:
    [tfm.page_accesses] (plus the pager's [fastswap.*] family). *)

val page_accesses : t -> int

(** {1 Loop chunking support} *)

val chunk_init : t -> handle:int -> stride_bytes:int -> unit
(** Enter a chunked loop for one strided pointer. [handle] identifies the
    (loop, pointer) pair statically. *)

val chunk_access : t -> handle:int -> ptr:int -> size:int -> write:bool -> unit
(** Per-iteration access in a chunked loop: a 3-instruction boundary
    check in the common case; on an object-boundary crossing, the
    locality invariant guard pins the new object (and unpins the old) and
    issues stride prefetches when enabled. *)

val chunk_end : t -> handle:int -> unit
(** Leave the chunked loop: release the pinned object. *)

(** {1 Introspection} *)

val fast_guards : t -> int
val slow_guards : t -> int

val cost : t -> Cost_model.t
