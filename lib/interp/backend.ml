type t = {
  name : string;
  store : Memstore.t;
  clock : Clock.t;
  cost : Cost_model.t;
  telemetry : Telemetry.Sink.t;
  malloc : int -> int;
  free : int -> unit;
  realloc : int -> int -> int;
  on_access : addr:int -> size:int -> write:bool -> unit;
  intrinsic : string -> int array -> int option;
}

let heap_base = 1 lsl 44

(* The canonical do-nothing access hook. Backends that charge every
   access at local cost use this shared closure, so engines can detect
   it by physical equality and compile the hook call away entirely. *)
let no_access ~addr:_ ~size:_ ~write:_ = ()

let plain_alloc_cost = 60

let base_intrinsics ?(telemetry = Telemetry.Sink.nop) clock name
    (args : int array) =
  match name with
  | "!tfm_init" -> Some 0 (* runtime already initialized host-side *)
  | "!bench_begin" ->
      (* Start of the measured region: discard setup-phase cycles and
         counters (memory-system state stays warm). The telemetry trace
         timestamp stays monotone across the reset. *)
      Telemetry.Sink.phase_mark telemetry "bench_begin";
      Telemetry.Sink.note_reset telemetry;
      Memsim.Clock.reset clock;
      Some 0
  | "!cpu_work" ->
      (* Fixed CPU-only work (request parsing, protocol handling, ...):
         charged directly rather than interpreted instruction by
         instruction. Never touches remotable memory. *)
      Memsim.Clock.tick clock args.(0);
      Some 0
  | "!op_begin" ->
      (* Span boundary: one operation of class args.(0) starts here.
         Free of simulated cycles — tracing must not perturb timing. *)
      Telemetry.Sink.op_begin telemetry ~cls:args.(0);
      Some 0
  | "!op_end" ->
      Telemetry.Sink.op_end telemetry;
      Some 0
  | _ -> None

(* The untracked heap of [local] and [fastswap]: a region allocator
   charging [plain_alloc_cost] per malloc and free. *)
let plain ~name ~on_access ~telemetry cost clock store =
  let alloc = Aifm.Region_alloc.create ~base:heap_base in
  {
    name;
    store;
    clock;
    cost;
    telemetry;
    malloc =
      (fun n ->
        Clock.tick clock plain_alloc_cost;
        Aifm.Region_alloc.alloc alloc (max 1 n));
    free =
      (fun p ->
        Clock.tick clock plain_alloc_cost;
        Aifm.Region_alloc.free alloc p);
    realloc =
      (fun p n ->
        if p = 0 then Aifm.Region_alloc.alloc alloc (max 1 n)
        else begin
          let old_req = Aifm.Region_alloc.requested_size_of alloc p in
          let cls = Aifm.Region_alloc.size_of alloc p in
          if n <= cls then p
          else begin
            let fresh = Aifm.Region_alloc.alloc alloc n in
            Memstore.blit store ~src:p ~dst:fresh ~len:(min old_req n);
            Aifm.Region_alloc.free alloc p;
            fresh
          end
        end);
    on_access;
    intrinsic = (fun name args -> base_intrinsics ~telemetry clock name args);
  }

let local ?(telemetry = Telemetry.Sink.nop) cost clock store =
  plain ~name:"local" ~on_access:no_access ~telemetry cost clock store

let fastswap ?readahead ?faults ?cluster ?(telemetry = Telemetry.Sink.nop)
    cost clock store ~local_budget =
  let swap =
    Fastswap.Swap.create ?readahead ?faults ?cluster ~telemetry cost clock
      ~local_budget
  in
  plain ~name:"fastswap"
    ~on_access:(fun ~addr ~size ~write ->
      if addr >= heap_base then Fastswap.Swap.access swap ~addr ~size ~write)
    ~telemetry cost clock store

let trackfm rt store =
  let module R = Trackfm.Runtime in
  let clock = R.clock rt in
  let telemetry = R.telemetry rt in
  let untransformed name =
    failwith
      (Printf.sprintf
         "trackfm backend: untransformed libc call %s reached the runtime \
          (libc pass missing?)"
         name)
  in
  (* The runtime-initialization pass must have inserted the !tfm_init hook
     before any TrackFM call executes, exactly as a real binary would
     crash without runtime setup. *)
  let initialized = ref false in
  let require_init name =
    if not !initialized then
      failwith
        (Printf.sprintf
           "trackfm backend: %s before !tfm_init (runtime-initialization \
            pass missing?)"
           name)
  in
  (* Every handler is bound once, here, and the dispatcher below only
     picks one by name, so a compiled call site resolves its handler
     before the run and a match allocates nothing. What a handler checks
     about the run (the init flag above all) it checks when it runs. *)
  let base name = base_intrinsics ~telemetry clock name in
  let bench_begin = base "!bench_begin"
  and cpu_work = base "!cpu_work"
  and op_begin = base "!op_begin"
  and op_end = base "!op_end" in
  let tfm_init _ =
    initialized := true;
    Some 0
  in
  let tfm_malloc args =
    require_init "tfm_malloc";
    Some (R.tfm_malloc rt args.(0))
  in
  let tfm_calloc args =
    require_init "tfm_calloc";
    Some (R.tfm_calloc rt args.(0) args.(1))
  in
  let tfm_realloc args =
    require_init "tfm_realloc";
    Some (R.tfm_realloc rt args.(0) args.(1))
  in
  let tfm_free args =
    require_init "tfm_free";
    R.tfm_free rt args.(0);
    Some 0
  in
  let guard_read args =
    R.guard rt ~ptr:args.(0) ~size:args.(1) ~write:false;
    Some args.(0)
  in
  let guard_write args =
    R.guard rt ~ptr:args.(0) ~size:args.(1) ~write:true;
    Some args.(0)
  in
  let page_read args =
    require_init "tfm_page_read";
    R.page_access rt ~ptr:args.(0) ~size:args.(1) ~write:false;
    Some args.(0)
  in
  let page_write args =
    require_init "tfm_page_write";
    R.page_access rt ~ptr:args.(0) ~size:args.(1) ~write:true;
    Some args.(0)
  in
  let chunk_init args =
    R.chunk_init rt ~handle:args.(0) ~stride_bytes:args.(1);
    Some 0
  in
  let chunk_read args =
    R.chunk_access rt ~handle:args.(0) ~ptr:args.(1) ~size:args.(2)
      ~write:false;
    Some args.(1)
  in
  let chunk_write args =
    R.chunk_access rt ~handle:args.(0) ~ptr:args.(1) ~size:args.(2)
      ~write:true;
    Some args.(1)
  in
  let chunk_end args =
    R.chunk_end rt ~handle:args.(0);
    Some 0
  in
  let unknown _ = None in
  {
    name = "trackfm";
    store;
    clock;
    cost = R.cost rt;
    telemetry;
    malloc = (fun _ -> untransformed "malloc");
    free = (fun _ -> untransformed "free");
    realloc = (fun _ _ -> untransformed "realloc");
    on_access = no_access;
    intrinsic =
      (fun name ->
        match name with
        | "!tfm_init" -> tfm_init
        | "!bench_begin" -> bench_begin
        | "!cpu_work" -> cpu_work
        | "!op_begin" -> op_begin
        | "!op_end" -> op_end
        | "tfm_malloc" -> tfm_malloc
        | "tfm_calloc" -> tfm_calloc
        | "tfm_realloc" -> tfm_realloc
        | "tfm_free" -> tfm_free
        | "tfm_guard_read" -> guard_read
        | "tfm_guard_write" -> guard_write
        | "tfm_page_read" -> page_read
        | "tfm_page_write" -> page_write
        | "!tfm_chunk_init" -> chunk_init
        | "tfm_chunk_access_read" -> chunk_read
        | "tfm_chunk_access_write" -> chunk_write
        | "!tfm_chunk_end" -> chunk_end
        | _ -> unknown);
  }
