(** Counter time-series: periodic snapshots of every clock counter.

    The telemetry sink installs a {!Memsim.Clock.set_sampler} hook that
    calls {!record} every [interval] simulated cycles, turning the
    end-of-run counter totals into curves — how fetches, guards and
    evictions evolve over a run (the raw material of the paper's
    event-count figures). Export as CSV ([cycles,counter,...] — one row
    per sample) or pull individual series for plotting. *)

type sample = { at : int; counters : (string * int) list }

type t

val create : interval:int -> t
(** Storage only; the caller wires the clock hook (see
    {!Sink.recording}). *)

val interval : t -> int
val length : t -> int

val record : t -> at:int -> (string * int) list -> unit
(** Append a snapshot taken at simulated time [at]. A snapshot with the
    same [at] as the previous one is dropped. *)

val samples : t -> sample list
(** Oldest first. *)

val names : t -> string list
(** Sorted union of counter names across all samples. *)

val series : t -> string -> (float * float) list
(** [(at, cumulative value)] points for one counter (0 where absent). *)

val deltas : t -> string -> (float * float) list
(** Per-interval increments of a cumulative counter; a counter drop (the
    clock was reset at [!bench_begin]) restarts the baseline. *)

val to_csv : t -> string
val to_channel : out_channel -> t -> unit
