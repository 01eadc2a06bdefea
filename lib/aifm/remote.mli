(** Library-based far memory: AIFM's remotable data structures.

    This is the paper's library baseline (AIFM, Ruan et al. OSDI '20): the
    application developer replaces containers with remote-aware versions
    and every access goes through a smart-pointer dereference under a
    DerefScope. Unlike TrackFM there are no guards on ordinary code — only
    data-structure operations pay overhead — but the programmer must port
    the code by hand.

    All structures share a {!ctx} holding the object pool, allocator and
    stride prefetcher. Element payloads are stored for real in the
    memstore, so reads return what was written. *)

type ctx

val create_ctx :
  ?faults:Faults.t ->
  ?cluster:Cluster.t ->
  Cost_model.t ->
  Clock.t ->
  Memstore.t ->
  object_size:int ->
  local_budget:int ->
  ctx
(** The transport is [Tcp] (AIFM runs on Shenango's TCP stack).
    [faults] (default {!Faults.disabled}) makes the fabric adversarial;
    dereferences then retry with backoff, stalls block-with-yield when
    inside a Shenango task, and the evacuator defers dirty evictions
    during outages. [cluster] routes evictions and localizations through
    the replicated remote tier (failover reads, replica-aware
    writebacks, recovery resync from the evacuator loop). *)

(** {1 Remote array} *)

module Array : sig
  type t

  val create : ctx -> elem_size:int -> len:int -> t
  (** Allocates the backing region; elements start zeroed and local
      (freshly materialized), subject to eviction. *)

  val len : t -> int
  val elem_size : t -> int

  val get : t -> int -> int
  (** Smart-pointer dereference under a scope: localizes the containing
      object if needed, then reads the element (little-endian). *)

  val set : t -> int -> int -> unit

  val get_float : t -> int -> float
  (** Requires [elem_size >= 8]. *)

  val set_float : t -> int -> float -> unit

  val iter_prefetched : t -> (int -> int -> unit) -> unit
  (** Sequential iteration through AIFM's iterator classes: the smart
      pointer is dereferenced once per object (not per element), the
      object stays pinned for the duration of the pass over it, and the
      stride prefetcher runs ahead of the scan — the cost structure of
      the paper's remote array iterators. Calls [f index value]. *)

  val iter_prefetched_float : t -> (int -> float -> unit) -> unit
  (** Float variant; requires [elem_size >= 8]. *)

  val fold_range_float :
    t -> lo:int -> hi:int -> init:float -> (float -> float -> float) -> float
  (** Iterator-style scoped fold over elements [lo, hi): the smart
      pointer is dereferenced per object, not per element — what an AIFM
      port uses to aggregate a contiguous slice. *)
end

(** {1 Remote hashmap}

    Open-addressing (linear probing) table over a remote slot array; the
    analog of AIFM's remote HashMap used for key-value workloads. Keys
    and values are non-negative ints; key slots store [key + 1] so zero
    means empty. *)

module Hashmap : sig
  type t

  val create : ctx -> slots:int -> t
  (** [slots] is rounded up to a power of two. *)

  val put : t -> key:int -> value:int -> unit
  (** @raise Failure when the table is full. *)

  val get : t -> key:int -> int option
  val mem : t -> key:int -> bool
  val size : t -> int
end

(** {1 Remote vector}

    Growable remote array (AIFM's remote vector): amortized-O(1) push via
    capacity doubling, with the data migrated between far-memory regions
    on growth. *)

module Vector : sig
  type t

  val create : ctx -> elem_size:int -> t
  val length : t -> int
  val capacity : t -> int
  val push : t -> int -> unit
  val get : t -> int -> int
  val set : t -> int -> int -> unit
  val iter_prefetched : t -> (int -> int -> unit) -> unit
end

(** {1 Remote linked list}

    Singly-linked list with one far-memory node per element — the shape
    the paper uses to motivate small AIFM object sizes (a 64 B object per
    node). Traversal is pointer chasing: no prefetching can help, which
    is precisely why the paper contrasts it with arrays. *)

module List : sig
  type t

  val create : ctx -> t
  val push_front : t -> int -> unit
  val length : t -> int

  val fold : t -> init:int -> (int -> int -> int) -> int
  (** [fold t ~init f] walks front to back, localizing one node at a
      time. *)

  val nth : t -> int -> int option
end

(** {1 Remote queue}

    Bounded ring buffer over a far-memory region (AIFM's remote queue):
    producers and consumers touch disjoint ends, so the hot head/tail
    objects stay local while the bulk can be evacuated. *)

module Queue : sig
  type t

  val create : ctx -> capacity:int -> t
  val push : t -> int -> bool
  (** [false] when full. *)

  val pop : t -> int option
  val length : t -> int
  val is_full : t -> bool
end
