(** Overload-robust multi-tenant serving: the memcached tier behind an
    open-loop traffic generator and a robustness control plane.

    The closed-loop bench experiments ask "how fast does one request
    stream run"; this module asks the capacity-planning question: {e what
    happens when offered load exceeds what the backend can serve?} An
    open-loop generator (Poisson arrivals, Zipf key popularity per
    tenant) feeds an accept queue drained by a pool of Shenango
    connection-handler tasks; requests hit a per-tenant LRU cache of
    locally resident objects (pages, for the Fastswap backend) sized by
    that tenant's local-memory budget, and misses go to far memory over
    the real {!Memsim.Net} transport — retry ladder, circuit breaker,
    replica failover and all. Every cost is on the simulated clock, so
    the whole run is deterministic under a fixed seed.

    The control plane, each part independently switchable:

    - {b admission control}: a bounded accept queue with deterministic
      deadline-based rejection — an arrival is rejected at the door when
      the queue is full or when its predicted wait (queue depth plus the
      scheduler's runnable backlog, times an EWMA of observed service
      time) already exceeds the deadline;
    - {b load shedding}: arrivals that would need the remote while the
      circuit breaker is open are shed at the door (resident keys keep
      flowing); dequeued requests older than the deadline are dropped
      rather than served uselessly late; under queue pressure each
      tenant is throttled to its weighted share of the queue;
    - {b graceful degradation}: serve-stale-on-unreachable (a previously
      registered object is answered from its last locally known value at
      local cost instead of stalling on the dead fabric), and readahead
      shedding on the Fastswap backend while the breaker is open or the
      queue is backed up.

    Attribution: spans (one per admitted request, class = tenant) open
    at admission, travel through the accept queue and the scheduler via
    the span save/restore tokens, and decompose into the PR 6 categories
    — queue wait is [Queueing], miss handling is [Guard_slow], fault
    recovery is [Retry]/[Failover] — so shed/queued/degraded cycles show
    up in [report critical-path]. Shed/reject events feed
    {!Telemetry.Sink.shed_event}, whose first firing dumps the flight
    recorder. *)

type backend = Trackfm | Fastswap | Aifm

val backend_name : backend -> string
val backend_of_string : string -> backend option

type tenant = {
  tn_name : string;
  weight : int;  (** share of offered traffic, relative to other tenants *)
  keys : int;  (** key-space size *)
  skew : float;  (** Zipf skew of key popularity *)
  budget : int;  (** local-memory budget, bytes *)
}

val default_tenants : n:int -> keys:int -> budget:int -> tenant list
(** [n] equal-weight tenants ["t0".."t<n-1>"], skew 0.99. *)

type controls = {
  admission : bool;
  shedding : bool;
  degradation : bool;
  queue_cap : int;  (** accept-queue bound (admission) *)
  deadline : int;  (** per-request latency deadline, cycles *)
}

val default_controls : controls
(** Everything on; queue_cap 256, deadline 500k cycles. *)

val open_loop : controls
(** Everything off (the hockey-stick baseline); queue_cap/deadline kept
    for goodput accounting only. *)

type params = {
  backend : backend;
  tenants : tenant list;
  rate : float;  (** offered load, requests per Mcycle (all tenants) *)
  requests : int;  (** arrivals to generate *)
  service_cycles : int;  (** request CPU cost (parse, hash, respond) *)
  value_size : int;  (** bytes per value; must divide the page size *)
  connections : int;  (** Shenango connection-handler tasks *)
  readahead : int;  (** Fastswap readahead pages per fault *)
  seed : int;
  controls : controls;
  faults : Faults.config;
  fault_seed : int;
  replicas : int;
  ack : int;
}

val default_params : params
(** Trackfm backend, 2 tenants x 64k keys, 30 req/Mcyc, 20k requests,
    service 10k cycles, 64 connections, no faults, replicas 1. *)

type tenant_stats = {
  tenant : tenant;
  offered : int;
  admitted : int;
  completed : int;  (** responses sent (includes degraded) *)
  degraded : int;  (** stale responses among [completed] *)
  rejected : int;  (** admission: queue full or deadline-infeasible *)
  shed : int;  (** shed at the door (breaker) or on dequeue (expired) *)
  throttled : int;  (** shed by per-tenant share enforcement *)
  hits : int;
  misses : int;  (** capacity misses served from far memory *)
  cold : int;  (** first-touch origin writes (registration) *)
  evictions : int;
  good : int;  (** completions within the deadline *)
  latency : Telemetry.Histogram.t;
      (** end-to-end (arrival to response) latency of completions *)
  checksum : int;  (** running checksum over served values *)
}

type result = {
  rp : params;
  duration : int;  (** scheduler completion time, cycles *)
  stats : tenant_stats list;
  fleet : Telemetry.Histogram.t;
      (** {!Telemetry.Histogram.merge} of the per-tenant latencies *)
  goodput : float;  (** deadline-met completions per Mcycle *)
  max_queue : int;  (** high-water mark of the accept queue *)
  clock : Clock.t;
  sink : Telemetry.Sink.t;  (** read spans/attribution back from here *)
}

val run :
  ?spans:bool ->
  ?flight:(string * (string * Telemetry.Json.t) list) ->
  params ->
  result
(** Execute one serving run. [spans] (default false) turns on the causal
    span tracker (one span per admitted request, class = tenant index)
    on scheduler time; [flight] arms the flight recorder at [path, meta]
    (implies spans). Deterministic: same [params] in, byte-identical
    {!result_json} out. Raises [Invalid_argument] on a rate or tenant
    skew that is not positive and finite, or a nonpositive count or
    size. *)

val result_json : result -> Telemetry.Json.t
(** Deterministic machine-readable summary (params echo, per-tenant
    counts/percentiles/checksums, fleet view, goodput, net counters) —
    what [serve --serving-json] writes and ci/golden/ pins. *)
