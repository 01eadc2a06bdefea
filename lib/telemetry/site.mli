(** Per-guard-site hotspot accounting — a "flamegraph for far memory".

    A site is the IR location (function name + instruction id of the
    injected runtime call) a guard executes from; the interpreter tags
    the sink with the current site and the runtime attributes each guard
    outcome and the bytes it moved to that site. The aggregated table
    answers the question the paper's evaluation keeps asking per program:
    which accesses take the slow path, and what do they cost? *)

type key = { func : string; instr : int }

type stat = {
  mutable fast : int;          (** fast-path guard hits *)
  mutable slow : int;          (** slow-path guard hits *)
  mutable locality : int;      (** chunked-loop locality-guard hits *)
  mutable custody : int;       (** custody-check skips (untracked ptr) *)
  mutable paged : int;         (** page-fault-path accesses (routed sites) *)
  mutable writes : int;        (** write accesses among the above *)
  mutable bytes_in : int;      (** network bytes fetched under this site *)
  mutable bytes_out : int;     (** writeback bytes enqueued under it *)
  mutable guard_cycles : int;  (** total cycles spent in its guards *)
}

type t

val create : unit -> t

val clear : t -> unit
(** Drop all accumulated stats (used when the clock's counters are reset
    at [!bench_begin], so table totals keep matching the counters). *)

val stat : t -> key -> stat
(** Find-or-create the mutable stat record for a site. *)

val is_empty : t -> bool

val key_to_string : key -> string
(** ["func:%id"], or just the function name for synthetic sites. *)

val rows : t -> (key * stat) list
(** All sites, hottest (most slow-path work, then most bytes) first. *)

val totals : t -> stat
(** Column sums over all sites; by construction these equal the clock's
    [tfm.*] guard counters for an attributed run. *)
