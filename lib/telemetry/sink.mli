(** The telemetry sink every instrumented component holds.

    A sink is either {!nop} — a constructor carrying no state, so the
    instrumentation check compiles to one pattern match and disabled runs
    pay nothing (and charge no simulated cycles either way: telemetry is
    tooling, not workload) — or a recorder aggregating four views of a
    run:

    - a per-IR-site hotspot table ({!Site});
    - log-bucketed histograms of slow-guard latency and fetch sizes
      ({!Histogram});
    - a counter time-series sampled every N simulated cycles ({!Series});
    - a Chrome-trace span/event log ({!Trace}).

    The interpreter calls {!set_site} before each load/store/call, so
    runtime events that follow are attributed to the IR location that
    caused them. *)

type path = [ `Fast | `Slow | `Locality | `Custody | `Paged ]

type epoch = { eat : int; erows : (Site.key * int array) list }
(** One closed site-profile epoch: per-site activity deltas since the
    previous sample, in {!Site.stat}'s order (fast, slow, locality,
    custody, paged, writes, bytes in, bytes out, guard cycles). *)

type recorder = {
  clock : Memsim.Clock.t;
  sites : Site.t;
  guard_cycles : Histogram.t;  (** slow/locality guard latency, cycles *)
  fetch_bytes : Histogram.t;   (** network fetch sizes, bytes *)
  retry_backoff : Histogram.t; (** fault-path retry backoffs, cycles *)
  series : Series.t option;
  trace : Trace.t option;
  mutable spans : Span.t option;  (** causal span tracker, when enabled *)
  epoch_prev : (Site.key, int array) Hashtbl.t;
  mutable epochs : epoch list;    (** newest first *)
  mutable flight : (string * (string * Json.t) list) option;
  mutable flight_dumped : string option;
  mutable cur : Site.key;      (** site of the instruction executing now *)
  mutable ts_base : int;
      (** cycles folded in from clock resets, so trace time is monotone
          across [!bench_begin] *)
  mutable last_sample_at : int;
      (** dedup guard: one counter snapshot per simulated instant *)
}

type t = Nop | Rec of recorder

val nop : t

val recording :
  ?trace:bool ->
  ?series_interval:int ->
  ?spans:bool ->
  ?op_classes:(int * string) list ->
  ?span_now:(unit -> int) ->
  Memsim.Clock.t ->
  t
(** A live recorder on [clock]. [series_interval] (simulated cycles,
    default 250k; [<= 0] disables the series) installs the clock sampler
    that snapshots counters. [trace] (default true) enables the Chrome-trace
    event log ({!Trace.create}'s default bound). [spans] (default false)
    enables the causal span tracker and the per-site epoch profiles;
    [op_classes] names its operation classes, and {!Span.create}'s
    default ring bounds the flight-recorder rings.
    [span_now] overrides the span tracker's time source (default: the
    reset-corrected clock timestamp) — the serving simulation passes
    Shenango core time so spans measure scheduler wall clock. *)

val capture :
  ?trace:bool ->
  ?series_interval:int ->
  ?spans:bool ->
  ?op_classes:(int * string) list ->
  ?flight:string * (string * Json.t) list ->
  unit ->
  t ref * (Memsim.Clock.t -> t)
(** A sink factory for drivers that create their clock internally: the
    factory makes a {!recording} sink on the clock it is given and
    stores it in the returned ref for post-run reporting. [flight] (a
    path and its metadata) arms the flight recorder at sink creation, so
    triggers fired mid-run (the first retry, a breaker opening, a node
    crash) dump immediately. *)

val is_active : t -> bool
val recorder : t -> recorder option

val timestamp : t -> int
(** Monotone trace timestamp (cycles, reset-corrected); 0 for {!nop}. *)

val final_sample : t -> unit
(** Force one last counter snapshot (call after the run finishes, since
    the end rarely lands on a sampling boundary). *)

val unknown_site : Site.key

val set_site : t -> func:string -> instr:int -> unit

val note_reset : t -> unit
(** Call immediately {e before} a [Clock.reset] so elapsed cycles fold
    into the trace timestamp base. Also drops the hotspot table and the
    histograms: the reset wipes the clock's counters, and the aggregate
    views must keep matching them (the trace and time-series retain the
    whole run). *)

(** {1 Events} (every one is a no-op on {!nop}) *)

val guard_event :
  t ->
  path:path ->
  write:bool ->
  cycles:int ->
  bytes_in:int ->
  bytes_out:int ->
  unit
(** One guard outcome at the current site: updates the hotspot table,
    records slow/locality latency in the histogram, and emits a trace
    slice for slow paths. [cycles]/[bytes_*] are the deltas the guard
    caused. *)

val fetch_event : t -> bytes:int -> prefetched:bool -> unit

val attach_net : t -> Memsim.Net.t -> unit
(** Install this sink as [net]'s event handler ({!Memsim.Net.on_event}),
    so fault events flow in with no per-event plumbing at call sites:
    retries feed the [retry_backoff] histogram (plus a trace instant at
    the current site), breaker open/close pairs become outage spans on
    the trace's fault track. *)


val attach_cluster : t -> Memsim.Cluster.t -> unit
(** Install this sink as the cluster's event handler
    ({!Memsim.Cluster.set_on_event}): node crashes become down-time spans
    on the trace's cluster track, recoveries become instants carrying
    the resync backlog. *)

val shed_event : t -> kind:string -> detail:string -> unit
(** One overload-control event from the serving tier ([kind] is e.g.
    ["shed"], ["reject"], ["throttle"], ["stale"]): noted as
    ["serving.<kind>"] in the span event ring, and the {e first} one
    triggers the flight-recorder dump, mirroring the first-fault
    trigger — the dump captures the moment the service first refused
    work. No-op on {!nop} or with spans disabled. *)

val writeback_event : t -> bytes:int -> unit
val evict_event : t -> unit
val prefetch_event : t -> from:int -> stride:int -> depth:int -> unit

val span : t -> name:string -> ?cat:string -> start:int -> unit -> unit
(** Close a duration slice opened at [start] (a {!timestamp} taken
    earlier) and ending now. *)

val phase_mark : t -> string -> unit
(** Instant marker on the phase track (e.g. ["bench_begin"]); also noted
    in the span event ring when spans are on. *)

(** {1 Causal spans} (all no-ops unless {!recording} had [~spans:true]) *)

val spans : t -> Span.t option

val op_begin : t -> cls:int -> unit
(** Open the span for one operation of class [cls] (the [!op_begin]
    intrinsic lands here). *)

val op_end : t -> unit

val cat_enter : t -> Span.category -> unit
(** Open a category frame: cycles until the matching {!cat_exit} that no
    nested frame claims are charged to this category. *)

val cat_exit : t -> unit

val cat_reclass : t -> Span.category -> unit
(** Recategorize the innermost open frame (a guard opens as
    {!Span.Guard_fast} and flips once the miss is known). *)

(** {1 Flight recorder} *)

val set_flight_recorder :
  t -> path:string -> meta:(string * Json.t) list -> unit
(** Arm the recorder: the first {!flight_trigger} serializes the span
    and event rings to [path] (with [meta] leading the object). *)

val flight_trigger : t -> reason:string -> unit
(** Dump now unless already dumped. Fired automatically on the first
    retry, breaker open, fetch failure, corruption, object loss or node
    crash; callable directly for triggers the sink cannot see (the
    checker raising [Unsound]). *)

val flight_dumped : t -> string option
(** The dump path, once a trigger has fired. *)

(** {1 Attribution export} *)

val epoch_count : t -> int

val attribution_json : t -> meta:(string * Json.t) list -> Json.t option
(** The machine-readable attribution summary ([run --attribution]):
    per-class wall-clock percentiles and exact category decomposition,
    the sums-to-wall-clock invariant verdict, background (out-of-span)
    attribution, and the per-site epoch profile feed. [None] when spans
    are disabled. *)
