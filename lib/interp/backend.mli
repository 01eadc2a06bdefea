(** Memory-system backends for the interpreter.

    A backend decides what every allocation and memory access costs and
    which runtime intrinsics exist. Three configurations mirror the
    paper's systems:

    - {!local}: everything in local DRAM — the "local-only" baseline the
      application figures normalize against;
    - {!fastswap}: unmodified programs over kernel paging;
    - {!trackfm}: TrackFM-transformed programs — plain accesses are
      local-cost; the injected [tfm_*] intrinsic calls drive the TrackFM
      runtime (and an untransformed libc [malloc] reaching this backend
      is reported as a compiler bug rather than silently tolerated). *)

type t = {
  name : string;
  store : Memstore.t;
  clock : Clock.t;
  cost : Cost_model.t;
  telemetry : Telemetry.Sink.t;
      (** The interpreter tags this sink with the IR site of each
          load/store/call before executing it, and emits phase marks and
          top-level call spans into it. {!Telemetry.Sink.nop} unless the
          caller opted into recording; never affects simulated cycles. *)
  malloc : int -> int;
  free : int -> unit;
  realloc : int -> int -> int;
  on_access : addr:int -> size:int -> write:bool -> unit;
  intrinsic : string -> int array -> int option;
      (** Handle a runtime call; [None] means unknown intrinsic.

          Both engines apply [intrinsic name] once per call site and
          call the handler they get on every execution of the site: the
          compiled engine when it compiles the module, the interpreter
          when it prepares the site's function. So a dispatcher should
          match the name before it takes the arguments and return a
          handler bound when the backend is built (the three backends
          here and [Driver.with_blobs] do), and every check that reads
          run state (such as {!trackfm}'s "!tfm_init ran first") belongs
          inside the handler: both engines resolve a site's handler
          before the site first runs. A wrapper written
          [fun name args -> ...] still sees every call on both engines,
          at the cost of running its whole body, name match included,
          on every call. *)
}

val local :
  ?telemetry:Telemetry.Sink.t -> Cost_model.t -> Clock.t -> Memstore.t -> t

val fastswap :
  ?readahead:int ->
  ?faults:Memsim.Faults.t ->
  ?cluster:Memsim.Cluster.t ->
  ?telemetry:Telemetry.Sink.t ->
  Cost_model.t ->
  Clock.t ->
  Memstore.t ->
  local_budget:int ->
  t
(** [faults] (default {!Memsim.Faults.disabled}) attaches a fabric fault
    injector to the swap transport; page-ins then retry with backoff and
    respect the circuit breaker. [cluster] swaps pages against the
    replicated remote tier. *)

val trackfm : Trackfm.Runtime.t -> Memstore.t -> t
(** Wraps an existing TrackFM runtime (whose clock/cost/telemetry sink
    the result shares). Its dispatcher picks one of a fixed set of
    handlers by name. Every allocation and page handler fails, naming
    the missing runtime-initialization pass, when it runs before
    [!tfm_init]. *)

val heap_base : int
(** Base address of the untracked (local/fastswap) heap segment. *)

val no_access : addr:int -> size:int -> write:bool -> unit
(** The canonical do-nothing [on_access] hook, shared by the backends
    that charge every access at local cost ({!local}, {!trackfm}).
    Both engines compare against it by physical equality, once per run,
    and then skip the per-access hook call. *)
