(** Shenango-style user-level tasking (discrete-event simulation).

    AIFM sits on Shenango's lightweight green threads: when one task
    blocks on a remote object fetch, the core switches to another in tens
    of nanoseconds, so concurrent requests hide far-memory latency. The
    paper leans on this in two places: AIFM's TCP backend "outperforms
    ... when there is sufficient concurrency" (Section 4.1), and remote
    fetch costs are dwarfed whenever other runnable work exists.

    This module simulates that execution model on a single core with a
    discrete-event scheduler over OCaml effects:

    - {!work} consumes CPU cycles (cores are serial: work from different
      tasks adds up);
    - {!block} releases the core for the duration of an I/O latency
      (blocking overlaps with other tasks' work and with other blocks);
    - {!yield} lets the evacuator-style background tasks interleave.

    The completion time returned by {!run} is therefore
    [max(total work, per-task critical paths)] — exactly the latency
    hiding AIFM exploits. *)

type t

type switch_hooks = {
  save : unit -> int;
  restore : token:int -> queued:int -> unit;
}
(** Context-switch observer (telemetry glue): [save] is called when a
    task leaves the core (block or yield) and returns a token;
    [restore ~token ~queued] is called just before that task resumes,
    with [queued] the cycles it sat runnable waiting for the core. The
    span tracker threads per-request contexts through the scheduler with
    exactly this pair. *)

val create : unit -> t

val set_switch_hooks : t -> switch_hooks option -> unit

val time : t -> int
(** Current core time (also valid outside {!run}, e.g. after it). *)

val spawn : t -> (unit -> unit) -> unit
(** Register a task. Tasks only run inside {!run}. *)

val run : t -> int
(** Execute all tasks to completion; returns the simulated completion
    time in cycles. @raise Failure on a deadlock (never happens with
    work/block/yield only; possible when a {!park}ed task is never
    {!unpark}ed). *)

(** {1 Introspection} — the serving tier's admission controller reads
    these to estimate queueing ahead of a new request. *)

val runnable_count : t -> int
(** Tasks ready at the current core time but waiting for the core — the
    instantaneous run-queue pressure signal. *)

val parked_count : t -> int
(** Tasks currently parked (idle connection handlers). *)

val unpark : t -> int -> int
(** [unpark t n] wakes up to [n] parked tasks, oldest first; each
    becomes runnable at the current core time. Returns the number
    actually woken. Callable from inside a task or outside the
    scheduler. *)

val unpark_all : t -> int

(** {1 Task-side operations} — must be called from inside a task. *)

val work : int -> unit
(** Consume CPU cycles on the (single) core. *)

val block : int -> unit
(** Block this task for a latency (e.g. a remote fetch): the core is
    released to other runnable tasks. *)

val yield : unit -> unit
(** Cooperative reschedule point (the out-of-scope state AIFM's
    evacuator barrier waits for). *)

val park : unit -> unit
(** Leave the run queue entirely until some other task calls {!unpark}
    (Shenango's thread park): unlike {!block} there is no wake time, so
    thousands of idle connection handlers cost nothing while parked.
    Parked time is {e not} queueing — the switch hooks see [queued = 0]
    plus only the cycles between the unpark and the resume. *)

val try_block : int -> bool
(** {!block} if called from inside a scheduled task, releasing the core
    for the duration; outside any scheduler this is a no-op returning
    [false]. The far-memory transport's stall handler uses this so
    retry backoff and outage waits yield the core instead of spinning
    when tasks are present ({e callable from anywhere}). *)

val now : unit -> int
(** Current simulated time (valid inside a task). *)
