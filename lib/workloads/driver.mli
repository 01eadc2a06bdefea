(** One-call execution of a workload under each of the paper's systems.

    A workload is a thunk producing a fresh IR module (the TrackFM
    pipeline transforms modules in place, so every run needs its own
    copy). The driver assembles the backend, optionally runs the TrackFM
    compiler (with a profiling pre-run on the local backend and the
    compiled engine when it can change a gated chunking verdict), executes,
    and returns the clock so callers can read any counter an experiment
    plots. Every runner executes on {!Engine.default} (compiled) unless
    given [~engine]. *)

type outcome = {
  ret : int;
  cycles : int;
  instrs : int;
  clock : Clock.t;
}

val counter : outcome -> string -> int

type tfm_opts = {
  object_size : int;
  local_budget : int;
  chunk_mode : Trackfm.Chunk_pass.mode;
  prefetch : bool;
  use_state_table : bool;
  profile_gate : bool;
      (** with [`Gated] chunking, run the workload once uninstrumented on
          the local backend and the compiled engine to collect block
          frequencies for the cost-model gate; it pre-runs only when a
          profile can change a verdict, i.e. some loop the gate decides
          has no constant trip count or is decided differently at it
          ({!Trackfm.Chunk_pass.needs_profile}); the other chunk modes
          never profile *)
  elide_guards : bool;
      (** run redundant-guard elimination and hoisting
          ({!Trackfm.Elide_pass}); the coverage checker runs either
          way *)
  use_summaries : bool;
      (** compute interprocedural summaries and hand them to the guard
          injector and elision pass ({!Trackfm.Pipeline.config}) *)
  use_shapes : bool;
      (** compute the interprocedural shape analysis before routing, so
          helper-hidden pointer chases classify and route statically
          ({!Trackfm.Pipeline.config}) *)
  route : Trackfm.Route_pass.mode;
      (** hybrid data plane: route pointer-chasing sites to the
          page-fault path ({!Trackfm.Route_pass}); [`Off] by default *)
  route_hotspots : (string * int) list;
      (** profile evidence for [`Profiled] routing: (function, instr id)
          sites the hotspot table shows slow-path dominated *)
  size_classes : (int * int * float) list;
      (** multi-object-size extension: forwarded to
          {!Trackfm.Runtime.create}; empty (default) = single class of
          [object_size] objects *)
  policy : Aifm.Pool.policy;
      (** every size class's eviction policy; [Clock_hand] (the default)
          is AIFM's hotness-tracking evacuator *)
  faults : Faults.t;
      (** fabric fault injector forwarded to every size class's
          transport; {!Faults.disabled} (the default) keeps the exact
          pre-fault code path *)
  replicas : int;
      (** remote-memory cluster size; [1] (the default) with no
          crash/corrupt faults keeps the single-server model bit for
          bit *)
  ack : int;  (** writeback ack count, [1 <= ack <= replicas] *)
}

val tfm_defaults : local_budget:int -> tfm_opts
(** 4 KiB objects, gated chunking with profile, prefetch and state table
    on. *)

val no_telemetry : Clock.t -> Telemetry.Sink.t
(** The default [telemetry] factory: always {!Telemetry.Sink.nop}. The
    runners create their own clock, so observability is requested as a
    factory — it is applied to the run's fresh clock and the resulting
    sink is threaded through backend, runtime and pools. Stash the sink
    from inside the factory to read the recordings afterwards. *)

val run_local :
  ?engine:Engine.t ->
  ?cost:Cost_model.t ->
  ?blobs:(int * Bytes.t) list ->
  ?telemetry:(Clock.t -> Telemetry.Sink.t) ->
  (unit -> Ir.modul) ->
  outcome

val run_trackfm :
  ?engine:Engine.t ->
  ?cost:Cost_model.t ->
  ?blobs:(int * Bytes.t) list ->
  ?telemetry:(Clock.t -> Telemetry.Sink.t) ->
  ?shadow:Shadow.t ->
  ?profile:Profile.t ->
  (unit -> Ir.modul) ->
  tfm_opts ->
  outcome * Trackfm.Pipeline.report
(** [shadow] threads the dynamic depth recorder through the measured
    run (interpreter engine only) — the shape analysis's audit.
    [profile] is the gate's block profile when the caller already has
    one for this module and blobs ({!profile_of}); the pre-run is then
    skipped. The gate reads it only with [`Gated] chunking and
    [profile_gate].

    Without [profile], those two settings make [run_trackfm] call
    [build] once for the pre-run and once for the measured run, as
    always; but it pre-runs only when a profile can change a verdict
    ({!Trackfm.Chunk_pass.needs_profile} with its [cost] and
    [object_size]), and otherwise compiles with no profile, which would
    have given every loop the verdict it gets without one. *)

val run_fastswap :
  ?engine:Engine.t ->
  ?cost:Cost_model.t ->
  ?readahead:int ->
  ?faults:Faults.t ->
  ?replicas:int ->
  ?ack:int ->
  ?blobs:(int * Bytes.t) list ->
  ?telemetry:(Clock.t -> Telemetry.Sink.t) ->
  local_budget:int ->
  (unit -> Ir.modul) ->
  outcome
(** [replicas]/[ack] (defaults 1/1) swap pages against a replicated
    remote tier when replication or crash/corrupt faults are configured
    (see {!Memsim.Cluster.create_opt}). *)

val profile_of :
  ?engine:Engine.t ->
  ?cost:Cost_model.t ->
  ?blobs:(int * Bytes.t) list ->
  (unit -> Ir.modul) ->
  Profile.t
(** Block-frequency profile from a local-backend run, counting every
    block whether or not a loop reads it (the profiler [run_trackfm]'s
    pre-run uses). It depends only on the module and its blobs: neither
    the engine, the cost model nor a TrackFM option changes a block
    count. *)

(** Workload input data ("datasets read from disk") is passed as [blobs]:
    the program copies blob [id] into simulated memory with the
    [!load_blob ptr id] intrinsic during its setup phase. *)

val autotune_object_size :
  ?cost:Cost_model.t ->
  ?blobs:(int * Bytes.t) list ->
  ?candidates:int list ->
  (unit -> Ir.modul) ->
  local_budget:int ->
  int * (int * int) list
(** The object-size autotuner the paper proposes in Section 3.2: since
    only the powers of two between the cache-line and the base page size
    are sensible, exhaustively recompile and short-run the workload at
    each candidate and keep the fastest. Returns the chosen size and the
    (size, cycles) measurements. Candidates default to 64..4096. *)
