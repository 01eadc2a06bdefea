(** AIFM-style object pool: the unified abstract data structure (ADS).

    All remotable memory is carved into fixed-size objects identified by
    dense ids (TrackFM derives the id from the non-canonical pointer by a
    shift). Each object is Local or Remote; local objects count against
    the compute node's local-memory budget and are evicted by a CLOCK
    second-chance evacuator when the budget is exceeded. Object *data*
    always lives in the shared {!Memsim.Memstore} so programs compute real
    results; locality is an accounting state that determines what each
    access costs and what crosses the simulated network.

    The paper's DerefScope pinning is modelled with per-object pin counts:
    the evacuator never evicts a pinned object, which is the invariant
    that makes TrackFM's fast-path guard sound (Section 3.3) and lets the
    loop-chunking locality guard hold an object across a whole chunk. *)

type t

type policy = Clock_hand | Fifo
(** Eviction policy: [Clock_hand] (default) is the CLOCK second-chance
    approximation of LRU that AIFM's hotness tracking amounts to; [Fifo]
    ignores recency entirely (an ablation of the evacuator's hotness
    bits). *)

val create :
  ?policy:policy ->
  ?telemetry:Telemetry.Sink.t ->
  ?addr_of_id:(int -> int) ->
  Cost_model.t ->
  Clock.t ->
  net:Net.t ->
  object_size:int ->
  local_budget:int ->
  t
(** [object_size] must be a power of two between 16 and 65536 bytes.
    [local_budget] is in bytes. [telemetry] (default
    {!Telemetry.Sink.nop}) receives fetch/writeback/eviction events; it
    never charges simulated cycles. [addr_of_id] maps an object id to
    its main-store base address — the replication key the pool passes to
    {!Memsim.Net.fetch_object}/{!Memsim.Net.writeback_object}; defaults
    to [id * object_size]. *)

val telemetry : t -> Telemetry.Sink.t
val set_telemetry : t -> Telemetry.Sink.t -> unit

val object_size : t -> int
val local_budget : t -> int
val local_used : t -> int

exception Out_of_local_memory
(** Raised when the budget is exceeded and every local object is pinned
    — with the remote reachable. While the circuit breaker is open
    (remote outage) the evacuator instead degrades: dirty objects cannot
    be written back, so it sheds clean objects only and, failing that,
    defers eviction entirely (counter [aifm.evictions_deferred]) letting
    local memory absorb the overshoot until recovery. *)

val materialize : t -> int -> unit
(** [materialize t id] creates the object directly in local memory (fresh
    allocation: no network fetch), dirty, subject to eviction. No-op if
    the object already exists and is local. Most callers instead rely on
    [ensure_local]'s lazy first-touch path. *)

val is_local : t -> int -> bool

val probe : t -> int -> int
(** [probe t id] is object [id]'s metadata byte (0 if never allocated):
    a guard's hit path reads it once, tests it with [resident], and on a
    hit records the access with [touch]. *)

val resident : int -> bool
(** Whether a metadata byte from [probe] says the object is local. *)

val touch : t -> int -> int -> write:bool -> unit
(** [touch t id m ~write] records an access to the local object [id]
    whose byte [probe] read as [m]: it marks the object hot, and dirty on
    a write, in one write of the byte. On a local object this is what
    [ensure_local] and then [mark_dirty] do. *)

val ensure_local : t -> int -> unit
(** Demand-localize. First touch of an object with no remote copy
    materializes it locally at a small fixed cost (the analogue of an
    anonymous first-touch fault); an object whose data was evicted pays
    the network fetch (or the residual prefetched cost if a prefetch
    already covered it). Updates the budget, evicting as needed, and
    marks the object hot. *)

val mark_dirty : t -> int -> unit
(** Record that a local object diverged from the remote copy; eviction of
    a dirty object pays a writeback. *)

val mark_prefetched : t -> int -> unit
(** Note an in-flight asynchronous prefetch for a remote object; the next
    [ensure_local] charges only the overlapped cost. No-op when local. *)

val pin : t -> int -> unit
val unpin : t -> int -> unit
val pinned : t -> int -> bool

val evict_one : t -> bool
(** Force one eviction round (used by tests); [false] if nothing evictable. *)

val discard : t -> int -> unit
(** Drop an object entirely (freed memory): releases its local budget if
    local and forgets any remote copy, with no writeback — the backing
    region is dead. No-op on pinned objects (a freed-while-in-scope
    object would be a use-after-free in the program, which the simulator
    surfaces by keeping the pin). *)

val local_count : t -> int
(** Number of objects currently local. *)

(** Counters on the shared clock: [aifm.demand_fetches],
    [aifm.evictions], [aifm.writebacks], [aifm.materialized],
    [aifm.evictions_deferred] (fault path only). *)
