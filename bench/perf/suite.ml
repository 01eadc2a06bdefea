(* The benchmark's four workloads and the TrackFM configuration they share.

   Every workload is a TrackFM program compiled with [Driver]'s defaults
   (4 KiB objects, gated chunking with profile, prefetch, state table,
   elision, summaries, shapes) and run at a local budget of 25% of its
   working set. They differ in the engine that executes them, the data
   plane that covers their accesses, and so in which layer dominates host
   time; README.md gives the reason for each. *)

type program = {
  inputs : unit -> (int * Bytes.t) list;
      (** input blobs, generated host-side during set-up *)
  oracle : unit -> int;  (** host reference checksum *)
  build : unit -> Ir.modul;  (** a fresh, untransformed IR module *)
  working_set : int;
}

type t = {
  name : string;
  engine : Engine.t;
  route : Trackfm.Route_pass.mode;
  program : quick:bool -> seed:int -> program;
      (** [quick] selects the smoke-test sizes; [seed] reaches only the
          generators that take one *)
}

let no_inputs () = []

let analytics ~quick ~seed:_ =
  let p = Analytics.default_params ~rows:(if quick then 600 else 50_000) in
  {
    inputs = no_inputs;
    oracle = (fun () -> Analytics.checksum p);
    build = Analytics.build p;
    working_set = Analytics.working_set_bytes p;
  }

let hashmap ~quick ~seed =
  let keys, lookups = if quick then (1_000, 3_000) else (80_000, 300_000) in
  let p = { (Hashmap.default_params ~keys ~lookups) with seed } in
  {
    inputs = (fun () -> [ (0, Hashmap.trace_blob p) ]);
    oracle = (fun () -> Hashmap.checksum p);
    build = Hashmap.build p;
    working_set = Hashmap.working_set_bytes p;
  }

(* NAS kernels scale only in whole multiples of 600,000 keys, which is
   seconds per run. The smoke test instead sorts [n] keys into [buckets]
   buckets with the same four loops as NAS IS (count, prefix sum,
   scatter, strided checksum), so the workload's path still runs end to
   end. *)
let tiny_is ~n ~buckets =
  let key i = i * 2654435761 land (buckets - 1) in
  let mask = 0x3FFFFFFF in
  let build () =
    let m = Ir.create_module () in
    let b = Builder.create m ~name:"main" ~nparams:0 in
    let at arr i scale = Builder.gep b arr ~index:i ~scale () in
    let keys = Builder.call b "malloc" [ Ir.Const (n * 4) ] in
    let sorted = Builder.call b "malloc" [ Ir.Const (n * 4) ] in
    let hist = Builder.call b "calloc" [ Ir.Const buckets; Ir.Const 8 ] in
    let off = Builder.call b "calloc" [ Ir.Const buckets; Ir.Const 8 ] in
    Builder.for_loop b ~init:(Ir.Const 0) ~bound:(Ir.Const n) (fun b i ->
        let k =
          Builder.binop b Ir.And (Builder.mul b i (Ir.Const 2654435761))
            (Ir.Const (buckets - 1))
        in
        Builder.store b ~size:4 k ~ptr:(at keys i 4));
    ignore (Builder.call b "!bench_begin" []);
    Builder.for_loop b ~init:(Ir.Const 0) ~bound:(Ir.Const n) (fun b i ->
        let h = at hist (Builder.load b ~size:4 (at keys i 4)) 8 in
        Builder.store b (Builder.add b (Builder.load b h) (Ir.Const 1)) ~ptr:h);
    ignore
      (Builder.for_loop_acc b ~init:(Ir.Const 0) ~bound:(Ir.Const buckets)
         ~accs:[ Ir.Const 0 ] (fun b ~iv:k ~accs ->
           let run = List.hd accs in
           Builder.store b run ~ptr:(at off k 8);
           [ Builder.add b run (Builder.load b (at hist k 8)) ]));
    Builder.for_loop b ~init:(Ir.Const 0) ~bound:(Ir.Const n) (fun b i ->
        let k = Builder.load b ~size:4 (at keys i 4) in
        let o = at off k 8 in
        let slot = Builder.load b o in
        Builder.store b ~size:4 k ~ptr:(at sorted slot 4);
        Builder.store b (Builder.add b slot (Ir.Const 1)) ~ptr:o);
    let ck =
      Builder.for_loop_acc b ~init:(Ir.Const 0) ~bound:(Ir.Const n) ~step:97
        ~accs:[ Ir.Const 0 ] (fun b ~iv:i ~accs ->
          let v = Builder.load b ~size:4 (at sorted i 4) in
          [ Builder.binop b Ir.And
              (Builder.add b (Builder.mul b (List.hd accs) (Ir.Const 33)) v)
              (Ir.Const mask) ])
    in
    Builder.ret b (Some (List.hd ck));
    m
  in
  let oracle () =
    let sorted = List.sort compare (List.init n key) in
    let ck = ref 0 in
    List.iteri
      (fun i k -> if i mod 97 = 0 then ck := ((!ck * 33) + k) land mask)
      sorted;
    !ck
  in
  { inputs = no_inputs; oracle; build; working_set = (8 * n) + (16 * buckets) }

let nas_is ~quick ~seed:_ =
  if quick then tiny_is ~n:4_000 ~buckets:256
  else
    let p = { Nas.kernel = Nas.IS; scale = 1 } in
    {
      inputs = no_inputs;
      oracle = (fun () -> Nas.checksum p);
      build = Nas.build p;
      working_set = Nas.working_set_bytes p;
    }

let llist ~quick ~seed:_ =
  let nodes, tnodes = if quick then (800, 300) else (120_000, 48_000) in
  {
    inputs = no_inputs;
    oracle = (fun () -> Llist.checksum ~nodes ~tnodes);
    build = Llist.build ~nodes ~tnodes;
    working_set = Llist.working_set_bytes ~nodes ~tnodes;
  }

let all =
  [
    { name = "analytics-interp"; engine = Engine.Interp; route = `Off;
      program = analytics };
    { name = "hashmap-zipf"; engine = Engine.Compiled; route = `Off;
      program = hashmap };
    { name = "is-scatter"; engine = Engine.Compiled; route = `Off;
      program = nas_is };
    { name = "llist-paged"; engine = Engine.Compiled; route = `Static;
      program = llist };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* The experiment harness's budget rule (bench/bench_common.ml,
   [budget_of]): page-rounded with two pages of slack, at least 16
   pages. *)
let local_budget ws =
  let pct = 25 in
  max (16 * 4096) ((((ws * pct / 100) + 4095) / 4096 * 4096) + (2 * 4096))

let opts w prog =
  {
    (Driver.tfm_defaults ~local_budget:(local_budget prog.working_set)) with
    Driver.route = w.route;
  }

(* The pipeline configuration [Driver.run_trackfm] builds from [opts];
   the benchmark checks it reproduces [Driver]'s [code_growth]. *)
let pipeline_config (o : Driver.tfm_opts) ?dump_after profile =
  {
    Trackfm.Pipeline.object_size = o.Driver.object_size;
    chunk_mode = o.chunk_mode;
    profile = Some profile;
    cost = Cost_model.default;
    elide = o.elide_guards;
    summaries = o.use_summaries;
    shapes = o.use_shapes;
    route = o.route;
    route_hotspots = o.route_hotspots;
    check = true;
    dump_after;
  }
