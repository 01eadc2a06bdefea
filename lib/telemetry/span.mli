(** Causal request tracing: per-operation spans with exact cycle
    attribution.

    One span per workload operation; inside it, runtimes bracket their
    work in category frames. A frame's exclusive time (its window minus
    nested frames) is charged to its category; the remainder of the span
    is compute. The decomposition therefore sums to the span's
    wall-clock cycles by construction, and {!violations} counts every
    bookkeeping error that could break that invariant, so callers assert
    it rather than trust it.

    Time comes from an injected [now] function: the telemetry sink
    passes its reset-corrected clock timestamp; scheduler tests pass
    virtual core time. *)

type category =
  | Compute      (** cycles no instrumented subsystem claimed *)
  | Guard_fast   (** guard checks that stayed local (incl. custody skips) *)
  | Guard_slow   (** guard misses: metadata, fetch, materialization *)
  | Queueing     (** runnable but waiting for the scheduler *)
  | Retry        (** fault-path wire attempts, backoff, breaker waits *)
  | Failover     (** replica ladder walks, lag waits, loss declaration *)
  | Evict_stall  (** making room: eviction scans, writeback enqueue *)

val ncats : int
val cat_index : category -> int
val cat_name : category -> string
val categories : category list
val cat_names : string list

type record = {
  id : int;
  cls : int;
  opened : int;
  wall : int;
  cats : int array;  (** exclusive cycles per {!cat_index} slot *)
}

type class_stat = {
  mutable ops : int;
  wall_hist : Histogram.t;
  cat_totals : int array;
  mutable slowest : record option;
}

type event = { ets : int; ename : string; edetail : string }

type t

val create :
  ?ring:int -> ?classes:(int * string) list -> now:(unit -> int) -> unit -> t
(** [ring] bounds both the recent-span and event rings (default 256).
    [classes] names operation-class ids for reports; unknown ids render
    as ["op<k>"]. *)

val class_name : t -> int -> string

(** {1 Span lifecycle} *)

val op_begin : t -> cls:int -> unit
(** Open a span for one operation of class [cls]. If a span is already
    open it is closed first (workloads mark boundaries only). *)

val op_end : t -> unit
(** Close the open span: the unattributed remainder becomes compute and
    the record lands in the per-class aggregates and the recent ring. *)

(** {1 Category frames} *)

val enter : t -> category -> unit
val exit : t -> unit
val reclass : t -> category -> unit
(** Change the category of the innermost open frame (a guard opens as
    {!Guard_fast} and reclassifies once the miss is known). *)

val attribute : t -> category -> int -> unit
(** Charge cycles directly, without a frame (queueing on resume). *)

(** {1 Scheduler context switching} *)

val save : t -> int
(** Detach the current context (open span + frames) and return a token;
    the tracker continues with a fresh empty context. *)

val restore : t -> int -> queued:int -> unit
(** Reinstate a saved context. [queued] cycles (runnable-but-waiting
    time) are charged to {!Queueing} and excluded from the innermost
    frame's exclusive share. *)

(** {1 Events and rings} *)

val note : t -> name:string -> detail:string -> unit

val recent : t -> record list
(** Recently closed spans, oldest first, bounded by [ring]. *)

val events : t -> event list
(** Noted events, oldest first, bounded by [ring]. *)

val spans_closed : t -> int

(** {1 Invariant} *)

val violations : t -> int
val violation_note : t -> string
(** First violation seen ([""] when none): unbalanced frames, restore of
    an unknown token, or attribution exceeding wall clock. *)

(** {1 Aggregates and serialization} *)

val classes : t -> (int * class_stat) list
(** Per-class aggregates, sorted by class id. *)

val background : t -> int array
(** Per-category cycles attributed outside any span (setup phases). *)

val cats_json : int array -> Json.t
val record_json : record -> Json.t
val classes_json : t -> Json.t
val invariant_json : t -> Json.t

val flight_json :
  t -> reason:string -> meta:(string * Json.t) list -> Json.t
(** The flight-recorder dump: reason, both rings, and the invariant
    state, preceded by [meta] (workload/system/seed). *)
