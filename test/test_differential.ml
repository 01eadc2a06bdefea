(* Differential testing: randomly generated programs must compute the
   same result untransformed on the local backend and TrackFM-transformed
   under memory pressure, for every chunk mode and object size. This is
   the strongest semantics-preservation check in the suite: the program
   shapes are not hand-picked. *)

(* A random program over one heap array:
   - a few sequential "phases";
   - each phase is a counted loop with a random stride/offset access
     pattern, randomly reading-modifying-writing or reducing;
   - some phases nest an inner loop or wrap the access in a data-dependent
     conditional, so the transformed control flow is exercised too;
   - loop bounds, strides and constants drawn from the given rng. *)
let random_program rng =
  let n = 2048 + Tfm_util.Rng.int rng 2048 in
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let arr = Builder.call b "malloc" [ Ir.Const (n * 8) ] in
  let phases = 1 + Tfm_util.Rng.int rng 4 in
  let acc = ref (Ir.Const 0) in
  for _ = 1 to phases do
    let stride = 1 + Tfm_util.Rng.int rng 7 in
    let offset = Tfm_util.Rng.int rng 16 in
    let bound = (n - offset) / stride in
    let bound = max 1 (1 + Tfm_util.Rng.int rng (max 1 bound)) in
    let mode = Tfm_util.Rng.int rng 5 in
    let k1 = 1 + Tfm_util.Rng.int rng 100 in
    let prev = !acc in
    let results =
      Builder.for_loop_acc b ~hint:"ph" ~init:(Ir.Const 0)
        ~bound:(Ir.Const bound) ~step:1 ~accs:[ prev ]
        (fun b ~iv ~accs ->
          let a = match accs with [ a ] -> a | _ -> assert false in
          let idx =
            Builder.add b
              (Builder.mul b iv (Ir.Const stride))
              (Ir.Const offset)
          in
          let ptr = Builder.gep b arr ~index:idx ~scale:8 () in
          match mode with
          | 0 ->
              (* reduce *)
              let v = Builder.load b ptr in
              [ Builder.binop b Ir.And
                  (Builder.add b a (Builder.add b v (Ir.Const k1)))
                  (Ir.Const 0x3FFFFFFF) ]
          | 1 ->
              (* store a function of the IV *)
              let v =
                Builder.binop b Ir.And
                  (Builder.mul b iv (Ir.Const k1))
                  (Ir.Const 0xFFFF)
              in
              Builder.store b v ~ptr;
              [ a ]
          | 2 ->
              (* read-modify-write *)
              let v = Builder.load b ptr in
              let v' =
                Builder.binop b Ir.And
                  (Builder.add b v (Ir.Const k1))
                  (Ir.Const 0xFFFF)
              in
              Builder.store b v' ~ptr;
              [ Builder.binop b Ir.And (Builder.add b a v')
                  (Ir.Const 0x3FFFFFFF) ]
          | 3 ->
              (* conditional store on a data-dependent predicate *)
              let v = Builder.load b ptr in
              let cond = Builder.icmp b Ir.Lt v (Ir.Const (k1 * 64)) in
              Builder.if_then b ~cond (fun b ->
                  Builder.store b
                    (Builder.binop b Ir.And (Builder.add b v (Ir.Const 3))
                       (Ir.Const 0xFFFF))
                    ~ptr);
              [ a ]
          | _ ->
              (* short nested loop over a neighbourhood (the k-means /
                 Figure 15 shape) *)
              let width = 1 + Tfm_util.Rng.int rng 6 in
              let inner =
                Builder.for_loop_acc b ~hint:"nest" ~init:(Ir.Const 0)
                  ~bound:(Ir.Const width) ~accs:[ a ]
                  (fun b ~iv:w ~accs ->
                    let a' = List.hd accs in
                    let nidx =
                      Builder.binop b Ir.Srem
                        (Builder.add b idx w)
                        (Ir.Const n)
                    in
                    let nptr = Builder.gep b arr ~index:nidx ~scale:8 () in
                    let v = Builder.load b nptr in
                    [ Builder.binop b Ir.And (Builder.add b a' v)
                        (Ir.Const 0x3FFFFFFF) ])
              in
              [ List.hd inner ])
    in
    acc := (match results with [ a ] -> a | _ -> assert false)
  done;
  (* fold the whole array into the result *)
  let final =
    Builder.for_loop_acc b ~hint:"fold" ~init:(Ir.Const 0) ~bound:(Ir.Const n)
      ~accs:[ !acc ]
      (fun b ~iv ~accs ->
        let a = match accs with [ a ] -> a | _ -> assert false in
        let v = Builder.load b (Builder.gep b arr ~index:iv ~scale:8 ()) in
        [ Builder.binop b Ir.And
            (Builder.add b (Builder.mul b a (Ir.Const 31)) v)
            (Ir.Const 0x3FFFFFFF) ])
  in
  Builder.ret b (Some (List.hd final));
  Verifier.check_module m;
  (m, n * 8)

let run_local m =
  let clock = Clock.create () in
  let backend = Backend.local Cost_model.default clock (Memstore.create ()) in
  (Interp.run backend m ~entry:"main").Interp.ret

(* The driver's TrackFM run on the interpreter, the oracle engine. The
   gate stays static (no profiling pre-run), so [m] is built once. *)
let run_tfm ?(size_classes = []) m ~object_size ~budget ~chunk_mode =
  let opts =
    {
      (Workloads.Driver.tfm_defaults ~local_budget:budget) with
      object_size;
      chunk_mode;
      profile_gate = false;
      size_classes;
    }
  in
  (fst (Workloads.Driver.run_trackfm ~engine:Engine.Interp (fun () -> m) opts))
    .Workloads.Driver.ret

let prop_differential =
  QCheck.Test.make ~name:"random programs: local = trackfm (all configs)"
    ~count:25
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Tfm_util.Rng.create seed in
      let reference =
        let m, _ = random_program (Tfm_util.Rng.copy rng) in
        run_local m
      in
      List.for_all
        (fun (object_size, budget_frac, chunk_mode) ->
          let m, ws = random_program (Tfm_util.Rng.copy rng) in
          let budget = max (8 * object_size) (ws * budget_frac / 100) in
          run_tfm m ~object_size ~budget ~chunk_mode = reference)
        [
          (4096, 30, `Off);
          (4096, 30, `All);
          (256, 20, `Gated);
          (64, 50, `All);
        ]
      && (let m, ws = random_program (Tfm_util.Rng.copy rng) in
          run_tfm m
            ~size_classes:[ (2048, 64, 0.5); (max_int, 4096, 0.5) ]
            ~object_size:4096
            ~budget:(max 65536 (ws / 2))
            ~chunk_mode:`Gated
          = reference)
      &&
      (* O1 composed with the TrackFM transform, run under pressure *)
      let m, ws = random_program (Tfm_util.Rng.copy rng) in
      ignore (Tfm_opt.O1.run m);
      run_tfm m ~object_size:1024
        ~budget:(max 32768 (ws / 4))
        ~chunk_mode:`Gated
      = reference)

(* The compiled engine on generated control flow: strided loops,
   data-dependent conditionals and short nests put phi moves on many
   kinds of edges. Untransformed on the local backend, and TrackFM with
   gated chunking and a profile, every observable must equal the
   interpreter's. *)
let observe engine run =
  let o : Workloads.Driver.outcome = run engine in
  ( o.ret,
    o.cycles,
    o.instrs,
    List.sort compare (Clock.counters o.Workloads.Driver.clock) )

let prop_engines_agree =
  QCheck.Test.make ~name:"random programs: compiled = interpreter" ~count:25
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Tfm_util.Rng.create seed in
      let build () = fst (random_program (Tfm_util.Rng.copy rng)) in
      let ws = snd (random_program (Tfm_util.Rng.copy rng)) in
      let opts =
        Workloads.Driver.tfm_defaults ~local_budget:(max 16384 (ws / 4))
      in
      let profile = Workloads.Driver.profile_of build in
      let local engine = Workloads.Driver.run_local ~engine build in
      let tfm engine =
        fst (Workloads.Driver.run_trackfm ~engine ~profile build opts)
      in
      List.for_all
        (fun run -> observe Engine.Interp run = observe Engine.Compiled run)
        [ local; tfm ])

let prop_differential_fastswap =
  QCheck.Test.make ~name:"random programs: local = fastswap" ~count:15
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Tfm_util.Rng.create seed in
      let reference =
        let m, _ = random_program (Tfm_util.Rng.copy rng) in
        run_local m
      in
      let m, ws = random_program (Tfm_util.Rng.copy rng) in
      let clock = Clock.create () in
      let store = Memstore.create () in
      let backend =
        Backend.fastswap Cost_model.default clock store
          ~local_budget:(max 16384 (ws / 4))
      in
      (Interp.run backend m ~entry:"main").Interp.ret = reference)

let prop_differential_o1 =
  QCheck.Test.make ~name:"random programs: O1 preserves semantics" ~count:25
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Tfm_util.Rng.create seed in
      let reference =
        let m, _ = random_program (Tfm_util.Rng.copy rng) in
        run_local m
      in
      let m, _ = random_program (Tfm_util.Rng.copy rng) in
      ignore (Tfm_opt.Opt.run_o1 m);
      run_local m = reference)

(* Telemetry round-trip: record the access trace of a live fastswap run
   (telemetry off), then replay it through a fresh fastswap backend whose
   sink is recording. The memory system must behave identically — every
   counter total matches the live run — and the recording sink's final
   time-series sample must agree with those totals. *)
let prop_tracer_telemetry_roundtrip =
  QCheck.Test.make ~name:"trace replay under telemetry = live counters"
    ~count:10
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Tfm_util.Rng.create seed in
      let m, ws = random_program rng in
      let budget = max 16384 (ws / 4) in
      let live_clock = Clock.create () in
      let trace = Tracer.create () in
      let live_backend =
        Tracer.recording trace
          (Backend.fastswap Cost_model.default live_clock (Memstore.create ())
             ~local_budget:budget)
      in
      ignore (Interp.run live_backend m ~entry:"main");
      let replay_clock = Clock.create () in
      let sink =
        Telemetry.Sink.recording ~series_interval:100_000 replay_clock
      in
      let replay_backend =
        Backend.fastswap ~telemetry:sink Cost_model.default replay_clock
          (Memstore.create ()) ~local_budget:budget
      in
      Tracer.replay trace replay_backend;
      Telemetry.Sink.final_sample sink;
      let live = Clock.counters live_clock in
      let replayed = Clock.counters replay_clock in
      let last_sample_ok =
        match Telemetry.Sink.recorder sink with
        | None -> false
        | Some r -> (
            match r.Telemetry.Sink.series with
            | None -> false
            | Some s -> (
                match List.rev (Telemetry.Series.samples s) with
                | last :: _ -> last.Telemetry.Series.counters = replayed
                | [] -> false))
      in
      live = replayed && last_sample_ok)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "differential",
    [
      q prop_differential;
      q prop_engines_agree;
      q prop_differential_fastswap;
      q prop_differential_o1;
      q prop_tracer_telemetry_roundtrip;
    ] )
