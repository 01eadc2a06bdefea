(** Execution profiles: block-frequency counts.

    NOELLE's profiling engine feeds TrackFM's improved loop chunking
    (Section 3.4): loops whose measured iteration behaviour cannot
    amortize the chunking setup are filtered out. Our profile is filled
    by an instrumented run on either engine, which count the same blocks
    (the driver's pre-run uses the compiled one), and consumed by the
    chunking pass's gate only. So the driver pre-runs only when a
    profile can change a verdict: a loop whose trip count is a
    compile-time constant ({!Induction.trip_count}) gets exactly that
    count from a profile, so the gate can decide it without one unless
    that count changes its verdict. *)

type t

val create : unit -> t

val add_block : t -> func:string -> block:string -> int -> unit
(** Accumulate executions of one block. *)

val cell : t -> func:string -> block:string -> int ref
(** The counter behind one block, created at zero on first use. An
    engine resolves each block's cell once, when it prepares the block,
    and increments it per execution without hashing the names. *)

val block_count : t -> func:string -> block:string -> int

val avg_trip_count :
  t -> func:string -> header:string -> preheader:string -> float option
(** Mean iterations per loop entry, derived as
    [header executions / preheader executions] (our canonical loops test
    the condition in the header, so the header runs trip+1 times per
    entry; the estimate subtracts that final check). [None] when the loop
    was never entered. *)
