type outcome = { ret : int; cycles : int; instrs : int; clock : Clock.t }

let counter o name = Clock.get o.clock name

type tfm_opts = {
  object_size : int;
  local_budget : int;
  chunk_mode : Trackfm.Chunk_pass.mode;
  prefetch : bool;
  use_state_table : bool;
  profile_gate : bool;
  elide_guards : bool;
  use_summaries : bool;
  use_shapes : bool;
  route : Trackfm.Route_pass.mode;
  route_hotspots : (string * int) list;
  size_classes : (int * int * float) list;
  policy : Aifm.Pool.policy;
  faults : Faults.t;
  replicas : int;
  ack : int;
}

let tfm_defaults ~local_budget =
  {
    object_size = 4096;
    local_budget;
    chunk_mode = `Gated;
    prefetch = true;
    use_state_table = true;
    profile_gate = true;
    elide_guards = true;
    use_summaries = true;
    use_shapes = true;
    route = `Off;
    route_hotspots = [];
    size_classes = [];
    policy = Aifm.Pool.Clock_hand;
    faults = Faults.disabled;
    replicas = 1;
    ack = 1;
  }

(* A cluster exists only when replication or crash/corrupt faults are in
   play ({!Memsim.Cluster.create_opt}); otherwise the backends take the
   single-server paths bit for bit. Seeded off the fault injector so one
   [--fault-seed] reproduces the whole failure schedule. *)
let make_cluster ~clock ~store ~replicas ~ack ~faults =
  Cluster.create_opt
    ~seed:(max 1 (Faults.seed faults))
    ~clock ~store ~replicas ~ack ~faults:(Faults.config faults) ()

(* Wrap a backend so the [!load_blob ptr id] intrinsic copies registered
   input data into simulated memory (the moral equivalent of reading a
   dataset from disk during setup; no cycles are charged). Like
   {!Backend.trackfm}'s, the dispatcher matches the name before it takes
   the arguments, so a compiled call site resolves its handler once. *)
let with_blobs blobs (backend : Backend.t) =
  match blobs with
  | [] -> backend
  | _ ->
      let table = Hashtbl.create 4 in
      List.iter (fun (id, bytes) -> Hashtbl.replace table id bytes) blobs;
      let load_blob args =
        let dst = args.(0) and id = args.(1) in
        match Hashtbl.find_opt table id with
        | Some bytes ->
            Memstore.write_bytes backend.Backend.store ~addr:dst bytes;
            Some 0
        | None -> failwith (Printf.sprintf "unknown blob %d" id)
      in
      {
        backend with
        Backend.intrinsic =
          (fun name ->
            match name with
            | "!load_blob" -> load_blob
            | _ -> backend.Backend.intrinsic name);
      }

let finish (clock : Clock.t) (r : Interp.result) =
  { ret = r.Interp.ret; cycles = r.Interp.cycles; instrs = r.Interp.instrs_executed; clock }

(* The driver creates the clock, so telemetry is requested as a factory:
   the caller gets a sink bound to the run's clock and keeps a reference
   for reporting. *)
let no_telemetry : Clock.t -> Telemetry.Sink.t = fun _ -> Telemetry.Sink.nop

let run_local ?(engine = Engine.default) ?(cost = Cost_model.default)
    ?(blobs = []) ?(telemetry = no_telemetry) build =
  let clock = Clock.create () in
  let store = Memstore.create () in
  let backend =
    with_blobs blobs (Backend.local ~telemetry:(telemetry clock) cost clock store)
  in
  finish clock (Engine.run ~engine backend (build ()) ~entry:"main")

(* The block counts of one local-backend run of [m]. *)
let profile_module ~engine ~cost ~blobs m =
  let profile = Profile.create () in
  let clock = Clock.create () in
  let store = Memstore.create () in
  let backend = with_blobs blobs (Backend.local cost clock store) in
  ignore (Engine.run ~engine ~profile backend m ~entry:"main");
  profile

let profile_of ?(engine = Engine.default) ?(cost = Cost_model.default)
    ?(blobs = []) build =
  profile_module ~engine ~cost ~blobs (build ())

let run_trackfm ?(engine = Engine.default) ?(cost = Cost_model.default)
    ?(blobs = []) ?(telemetry = no_telemetry) ?shadow ?profile build opts =
  (* Only the gated chunking decision reads the profile, and only for a
     candidate loop whose verdict a profile can change: a module without
     one is built for the pre-run but not run. Block counts do not depend
     on the engine, so the pre-run takes the compiled one whichever
     engine executes the program. *)
  let profile =
    if opts.chunk_mode = `Gated && opts.profile_gate then
      match profile with
      | Some _ -> profile
      | None ->
          let m = build () in
          if
            Trackfm.Chunk_pass.needs_profile cost
              ~object_size:opts.object_size m
          then
            Some (profile_module ~engine:Engine.Compiled ~cost ~blobs m)
          else None
    else None
  in
  let m = build () in
  let config =
    {
      Trackfm.Pipeline.default_config with
      object_size = opts.object_size;
      chunk_mode = opts.chunk_mode;
      profile;
      cost;
      elide = opts.elide_guards;
      summaries = opts.use_summaries;
      shapes = opts.use_shapes;
      route = opts.route;
      route_hotspots = opts.route_hotspots;
    }
  in
  let report = Trackfm.Pipeline.run config m in
  let clock = Clock.create () in
  let store = Memstore.create () in
  let sink = telemetry clock in
  let cluster =
    make_cluster ~clock ~store ~replicas:opts.replicas ~ack:opts.ack
      ~faults:opts.faults
  in
  Option.iter (Telemetry.Sink.attach_cluster sink) cluster;
  let rt =
    Trackfm.Runtime.create ~use_state_table:opts.use_state_table
      ~prefetch:opts.prefetch
      ?size_classes:
        (match opts.size_classes with [] -> None | l -> Some l)
      ~policy:opts.policy ~telemetry:sink ~faults:opts.faults ?cluster cost
      clock store ~object_size:opts.object_size
      ~local_budget:opts.local_budget
  in
  let backend = with_blobs blobs (Backend.trackfm rt store) in
  (finish clock (Engine.run ~engine ?shadow backend m ~entry:"main"), report)

let run_fastswap ?(engine = Engine.default) ?(cost = Cost_model.default)
    ?readahead ?(faults = Faults.disabled) ?(replicas = 1) ?(ack = 1)
    ?(blobs = []) ?(telemetry = no_telemetry) ~local_budget build =
  let clock = Clock.create () in
  let store = Memstore.create () in
  let sink = telemetry clock in
  let cluster = make_cluster ~clock ~store ~replicas ~ack ~faults in
  Option.iter (Telemetry.Sink.attach_cluster sink) cluster;
  let backend =
    with_blobs blobs
      (Backend.fastswap ?readahead ~faults ?cluster ~telemetry:sink cost clock
         store ~local_budget)
  in
  finish clock (Engine.run ~engine backend (build ()) ~entry:"main")

let autotune_object_size ?(cost = Cost_model.default) ?(blobs = [])
    ?(candidates = [ 64; 128; 256; 512; 1024; 2048; 4096 ]) build ~local_budget
    =
  let measure object_size =
    let opts =
      { (tfm_defaults ~local_budget) with object_size; profile_gate = false }
    in
    (fst (run_trackfm ~cost ~blobs build opts)).cycles
  in
  let results = List.map (fun osz -> (osz, measure osz)) candidates in
  let best =
    List.fold_left
      (fun (bo, bc) (o, c) -> if c < bc then (o, c) else (bo, bc))
      (match results with
      | r :: _ -> r
      | [] -> invalid_arg "autotune_object_size: no candidates")
      results
  in
  (fst best, results)
