(** Simulated cycle clock and event counters.

    Every runtime component charges its costs here; experiments read the
    final cycle count as "execution time" and the named counters as the
    event series the paper plots (guard counts, fault counts, bytes
    transferred). *)

type t

val create : unit -> t

val tick : t -> int -> unit
(** Advance the clock by a number of cycles. *)

val cycles : t -> int

val monotonic : t -> int
(** Cycles since clock creation, {e including} everything folded away by
    {!reset}s. [!bench_begin] zeroes {!cycles} so experiments measure only
    the timed region; components whose state machines must stay coherent
    across that boundary (the replicated cluster's crash schedule and
    replication timestamps) key off this monotone timeline instead. *)

type counter
(** A counter name resolved to its slot. Slots are process-wide: every
    clock indexes its values by them. *)

val counter : string -> counter
(** The slot of a name, registered on first use. Hot paths call this
    once, at module initialisation, and keep the handle. *)

val add : t -> counter -> int -> unit
(** Add to a counter. *)

val value : t -> counter -> int
(** Value of a counter (0 if not counted since the last {!reset}). *)

val count : t -> string -> int -> unit
(** [add t (counter name) n]: the name is looked up on every call. *)

val get : t -> string -> int
(** Value of a named counter (0 if never counted). *)

val counters : t -> (string * int) list
(** The counters counted since the last {!reset} (adds of 0 included),
    sorted by name. *)

val reset : t -> unit
(** Zero the clock and all counters. An installed sampler stays
    installed; its next firing is one interval after the reset. *)

val set_sampler : t -> interval:int -> (t -> unit) -> unit
(** Install a periodic hook: [f] is called from inside {!tick} every
    [interval] simulated cycles (a tick that crosses several interval
    boundaries fires once per boundary). The telemetry layer uses this to
    snapshot counters into a time-series; with no sampler installed the
    per-tick cost is a single integer compare. The hook must not tick the
    clock. *)
