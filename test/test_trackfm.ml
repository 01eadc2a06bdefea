(* Tests for the TrackFM core: pointer encoding, runtime guards, chunking
   support, compiler passes and the cost model. *)

module R = Trackfm.Runtime

let make_rt ?(object_size = 4096) ?(local_budget = 16 * 4096) ?use_state_table
    ?prefetch () =
  let cost = Cost_model.default in
  let clock = Clock.create () in
  let store = Memstore.create () in
  let rt =
    R.create ?use_state_table ?prefetch cost clock store ~object_size
      ~local_budget
  in
  (rt, clock, store)

(* -- non-canonical pointers -- *)

let test_nc_ptr_encoding () =
  let p = Trackfm.Nc_ptr.tag_base + 12345 in
  Alcotest.(check bool) "tracked" true (Trackfm.Nc_ptr.is_tracked p);
  Alcotest.(check bool) "stack-range untracked" false
    (Trackfm.Nc_ptr.is_tracked (1 lsl 30));
  Alcotest.(check int) "offset" 12345 (Trackfm.Nc_ptr.offset p);
  Alcotest.(check int) "object id" 3
    (Trackfm.Nc_ptr.object_id p ~object_size_log2:12)

(* -- allocation -- *)

let test_malloc_returns_tagged () =
  let rt, _, _ = make_rt () in
  let p = R.tfm_malloc rt 100 in
  Alcotest.(check bool) "tagged" true (Trackfm.Nc_ptr.is_tracked p)

let test_malloc_distinct_and_free_reuse () =
  let rt, _, _ = make_rt () in
  let p1 = R.tfm_malloc rt 64 in
  let p2 = R.tfm_malloc rt 64 in
  Alcotest.(check bool) "distinct" true (p1 <> p2);
  R.tfm_free rt p1;
  let p3 = R.tfm_malloc rt 64 in
  Alcotest.(check int) "freed block reused" p1 p3

let test_realloc_preserves_data () =
  let rt, _, store = make_rt () in
  let p = R.tfm_malloc rt 32 in
  Memstore.store store ~addr:p ~size:8 424242;
  let q = R.tfm_realloc rt p 4096 in
  Alcotest.(check bool) "moved" true (q <> p);
  Alcotest.(check int) "data copied" 424242 (Memstore.load store ~addr:q ~size:8)

let test_state_table_size () =
  let rt, _, _ = make_rt ~object_size:4096 () in
  ignore (R.tfm_malloc rt (Tfm_util.Units.mib 1));
  (* 1 MiB / 4 KiB objects = 256 entries of 8 B *)
  Alcotest.(check int) "8B per object" (256 * 8) (R.state_table_bytes rt)

(* -- guards -- *)

let test_guard_custody_skip () =
  let rt, clock, _ = make_rt () in
  R.guard rt ~ptr:(1 lsl 30) ~size:8 ~write:false;
  Alcotest.(check int) "custody skip" 1 (Clock.get clock "tfm.custody_skips");
  Alcotest.(check int) "no guards" 0 (R.fast_guards rt + R.slow_guards rt);
  Alcotest.(check int) "only custody cycles" Cost_model.default.custody_check
    (Clock.cycles clock)

let test_guard_fast_vs_slow () =
  let rt, _, _ = make_rt () in
  let p = R.tfm_malloc rt 64 in
  R.guard rt ~ptr:p ~size:8 ~write:false;
  Alcotest.(check int) "first touch slow" 1 (R.slow_guards rt);
  R.guard rt ~ptr:p ~size:8 ~write:false;
  Alcotest.(check int) "second touch fast" 1 (R.fast_guards rt)

let test_guard_localizes_remote () =
  let rt, clock, _ = make_rt ~local_budget:4096 () in
  let p = R.tfm_malloc rt 64 in
  R.guard rt ~ptr:p ~size:8 ~write:true;
  (* Evict it by touching a different object (one-object budget). *)
  let q = R.tfm_malloc rt 8192 in
  R.guard rt ~ptr:(q + 4096) ~size:8 ~write:false;
  Alcotest.(check bool) "first object evicted" false
    (Aifm.Pool.is_local (R.pool rt) 0);
  Clock.reset clock;
  R.guard rt ~ptr:p ~size:8 ~write:false;
  Alcotest.(check bool) "remote fetch charged" true
    (Clock.get clock "net.fetches" = 1);
  Alcotest.(check bool) "fetch cost ~TCP remote" true
    (Clock.cycles clock > 30_000)

let test_guard_spanning_objects () =
  let rt, _, _ = make_rt ~object_size:4096 () in
  let p = R.tfm_malloc rt 8192 in
  (* 8-byte access straddling the object boundary localizes both. *)
  R.guard rt ~ptr:(p + 4092) ~size:8 ~write:false;
  Alcotest.(check bool) "both halves local" true
    (Aifm.Pool.is_local (R.pool rt) 0 && Aifm.Pool.is_local (R.pool rt) 1)

let test_state_table_ablation_costs_more () =
  let run ~use_state_table =
    let rt, clock, _ = make_rt ~use_state_table () in
    let p = R.tfm_malloc rt 4096 in
    R.guard rt ~ptr:p ~size:8 ~write:false;
    Clock.reset clock;
    for _ = 1 to 100 do
      R.guard rt ~ptr:p ~size:8 ~write:false
    done;
    Clock.cycles clock
  in
  Alcotest.(check bool) "without table is slower" true
    (run ~use_state_table:false > run ~use_state_table:true)

let test_metadata_cache_model () =
  let rt, clock, _ = make_rt ~object_size:4096 () in
  let p = R.tfm_malloc rt (Tfm_util.Units.mib 2) in
  (* Touch one object twice: first guard misses the metadata cache, the
     second hits. *)
  R.guard rt ~ptr:p ~size:8 ~write:false;
  let misses1 = Clock.get clock "tfm.state_table_misses" in
  R.guard rt ~ptr:p ~size:8 ~write:false;
  Alcotest.(check int) "second lookup cached" misses1
    (Clock.get clock "tfm.state_table_misses")

(* -- chunking runtime -- *)

let test_chunk_protocol () =
  let rt, clock, _ = make_rt ~object_size:4096 () in
  let p = R.tfm_malloc rt (3 * 4096) in
  R.chunk_init rt ~handle:0 ~stride_bytes:8;
  for i = 0 to ((3 * 4096 / 8) - 1) do
    R.chunk_access rt ~handle:0 ~ptr:(p + (i * 8)) ~size:8 ~write:false
  done;
  R.chunk_end rt ~handle:0;
  Alcotest.(check int) "3 locality guards (one per object)" 3
    (Clock.get clock "tfm.locality_guards");
  Alcotest.(check int) "one boundary check per access" (3 * 512)
    (Clock.get clock "tfm.boundary_checks");
  Alcotest.(check int) "no pins left" 0
    (if Aifm.Pool.pinned (R.pool rt) 0 then 1 else 0)

let test_chunk_pins_against_evacuator () =
  let rt, _, _ = make_rt ~local_budget:4096 () in
  let p = R.tfm_malloc rt 4096 in
  R.chunk_init rt ~handle:1 ~stride_bytes:8;
  R.chunk_access rt ~handle:1 ~ptr:p ~size:8 ~write:false;
  Alcotest.(check bool) "current chunk pinned" true
    (Aifm.Pool.pinned (R.pool rt) 0);
  R.chunk_end rt ~handle:1;
  Alcotest.(check bool) "unpinned at exit" false
    (Aifm.Pool.pinned (R.pool rt) 0)

let test_chunk_custody_check () =
  let rt, clock, _ = make_rt () in
  R.chunk_init rt ~handle:2 ~stride_bytes:8;
  R.chunk_access rt ~handle:2 ~ptr:(1 lsl 30) ~size:8 ~write:false;
  Alcotest.(check int) "untracked pointer skipped" 1
    (Clock.get clock "tfm.custody_skips")

(* -- cost model -- *)

let test_cost_model_equations () =
  let c = Cost_model.default in
  (* Eq. 1 and 2 at d = 512 *)
  Alcotest.(check int) "naive"
    ((511 * c.fast_guard_read) + c.slow_guard_read_local)
    (Trackfm.Cost_eq.naive_cost_per_object c ~density:512);
  Alcotest.(check int) "chunked"
    ((511 * c.boundary_check) + c.locality_guard)
    (Trackfm.Cost_eq.chunked_cost_per_object c ~density:512);
  (* Eq. 3 threshold: (cs - cl) / (cb - cf) *)
  let expected =
    float_of_int (c.slow_guard_read_local - c.locality_guard)
    /. float_of_int (c.boundary_check - c.fast_guard_read)
  in
  Alcotest.(check (float 1e-9)) "threshold" expected
    (Trackfm.Cost_eq.density_threshold c)

let test_cost_model_gating () =
  let c = Cost_model.default in
  Alcotest.(check bool) "dense loop chunked" true
    (Trackfm.Cost_eq.should_chunk_static c ~density:512);
  Alcotest.(check bool) "sparse loop not chunked" false
    (Trackfm.Cost_eq.should_chunk_static c ~density:1);
  (* Profiled gate: a dense loop with a tiny trip count cannot amortize
     the chunk entry cost. *)
  Alcotest.(check bool) "short trip rejected" false
    (Trackfm.Cost_eq.should_chunk_profiled c ~density:512 ~avg_trip:8.0);
  Alcotest.(check bool) "long trip accepted" true
    (Trackfm.Cost_eq.should_chunk_profiled c ~density:512 ~avg_trip:10_000.0)

let test_cost_model_crossover_consistent () =
  (* The break-even predicted by the equations must match where the
     per-object costs actually cross. *)
  let c = Cost_model.default in
  let d_star = Trackfm.Cost_eq.density_threshold c in
  let d_lo = int_of_float d_star and d_hi = int_of_float d_star + 2 in
  Alcotest.(check bool) "below crossover naive wins" true
    (Trackfm.Cost_eq.naive_cost_per_object c ~density:d_lo
    <= Trackfm.Cost_eq.chunked_cost_per_object c ~density:d_lo);
  Alcotest.(check bool) "above crossover chunked wins" true
    (Trackfm.Cost_eq.naive_cost_per_object c ~density:d_hi
    > Trackfm.Cost_eq.chunked_cost_per_object c ~density:d_hi)

(* -- passes -- *)

let program_with_malloc_loop () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let p = Builder.call b "malloc" [ Ir.Const 8192 ] in
  let stack = Builder.alloca b 64 in
  Builder.for_loop b ~init:(Ir.Const 0) ~bound:(Ir.Const 1024) (fun b iv ->
      let ptr = Builder.gep b p ~index:iv ~scale:8 () in
      let v = Builder.load b ptr in
      Builder.store b v ~ptr:(Builder.gep b stack ~index:(Ir.Const 0) ~scale:8 ()));
  Builder.ret b (Some (Ir.Const 0));
  m

let test_init_pass () =
  let m = program_with_malloc_loop () in
  Alcotest.(check bool) "inserted" true (Trackfm.Init_pass.run m);
  Alcotest.(check bool) "idempotent" false (Trackfm.Init_pass.run m);
  let f = Ir.find_func m "main" in
  match (Ir.entry f).instrs with
  | { kind = Ir.Call { callee; _ }; _ } :: _ ->
      Alcotest.(check string) "hook first" Trackfm.Init_pass.hook_name callee
  | _ -> Alcotest.fail "hook not at entry head"

let test_libc_pass () =
  let m = program_with_malloc_loop () in
  let n = Trackfm.Libc_pass.run m in
  Alcotest.(check int) "one rewrite" 1 n;
  let f = Ir.find_func m "main" in
  let has_tfm_malloc =
    List.exists
      (fun (b : Ir.block) ->
        List.exists
          (fun (i : Ir.instr) ->
            match i.kind with
            | Ir.Call { callee = "tfm_malloc"; _ } -> true
            | _ -> false)
          b.instrs)
      f.blocks
  in
  Alcotest.(check bool) "malloc renamed" true has_tfm_malloc

let test_guard_pass_skips_stack () =
  let m = program_with_malloc_loop () in
  let report = Trackfm.Guard_pass.run m in
  Alcotest.(check int) "heap load guarded" 1 report.Trackfm.Guard_pass.guarded_loads;
  Alcotest.(check int) "stack store skipped" 0
    report.Trackfm.Guard_pass.guarded_stores;
  Alcotest.(check int) "one skip" 1 report.Trackfm.Guard_pass.skipped_non_heap;
  Verifier.check_module m

let test_chunk_pass_covers_accesses () =
  let m = program_with_malloc_loop () in
  let report =
    Trackfm.Chunk_pass.run Cost_model.default ~object_size:4096 ~mode:`All m
  in
  Alcotest.(check int) "one candidate" 1
    (List.length report.Trackfm.Chunk_pass.candidates);
  Alcotest.(check int) "one chunk site" 1 report.Trackfm.Chunk_pass.chunk_sites;
  Alcotest.(check int) "one covered access" 1
    (Hashtbl.length report.Trackfm.Chunk_pass.covered);
  Verifier.check_module m;
  (* Guard pass must skip the covered access. *)
  let greport = Trackfm.Guard_pass.run ~exclude:report.Trackfm.Chunk_pass.covered m in
  Alcotest.(check int) "guard pass skipped chunked" 1
    greport.Trackfm.Guard_pass.skipped_chunked

let test_pipeline_full () =
  let m = program_with_malloc_loop () in
  let report = Trackfm.Pipeline.run Trackfm.Pipeline.default_config m in
  Alcotest.(check bool) "init inserted" true report.Trackfm.Pipeline.init_inserted;
  Alcotest.(check int) "libc rewrites" 1 report.Trackfm.Pipeline.libc_rewrites;
  Alcotest.(check bool) "code grew" true
    (Trackfm.Pipeline.code_growth report > 1.0);
  Verifier.check_module m

let test_pipeline_off_mode_no_chunks () =
  let m = program_with_malloc_loop () in
  let config = { Trackfm.Pipeline.default_config with chunk_mode = `Off } in
  let report = Trackfm.Pipeline.run config m in
  Alcotest.(check int) "no chunk sites" 0
    report.Trackfm.Pipeline.chunks.Trackfm.Chunk_pass.chunk_sites;
  Alcotest.(check int) "access guarded instead" 1
    report.Trackfm.Pipeline.guards.Trackfm.Guard_pass.guarded_loads

let test_lowering_weights () =
  Alcotest.(check int) "guard weight" 16
    (Trackfm.Lowering.instr_weight
       (Ir.Call { callee = "tfm_guard_read"; args = [] }));
  Alcotest.(check int) "boundary weight" 3
    (Trackfm.Lowering.instr_weight
       (Ir.Call { callee = "tfm_chunk_access_read"; args = [] }));
  Alcotest.(check int) "plain weight" 1
    (Trackfm.Lowering.instr_weight (Ir.Binop (Ir.Add, Ir.Const 1, Ir.Const 2)))


(* -- multi-object-size extension -- *)

let make_multi_rt ?(local_budget = 64 * 4096) () =
  let cost = Cost_model.default in
  let clock = Clock.create () in
  let store = Memstore.create () in
  let rt =
    R.create cost clock store ~object_size:4096 ~local_budget
      ~size_classes:[ (2048, 64, 0.5); (max_int, 4096, 0.5) ]
  in
  (rt, clock, store)

let test_multisize_routing () =
  let rt, _, _ = make_multi_rt () in
  Alcotest.(check int) "two classes" 2 (R.size_class_count rt);
  let small = R.tfm_malloc rt 64 in
  let large = R.tfm_malloc rt 100_000 in
  Alcotest.(check int) "small alloc in class 0" 0 (Trackfm.Nc_ptr.size_class small);
  Alcotest.(check int) "large alloc in class 1" 1 (Trackfm.Nc_ptr.size_class large);
  Alcotest.(check bool) "both tracked" true
    (Trackfm.Nc_ptr.is_tracked small && Trackfm.Nc_ptr.is_tracked large)

let test_multisize_guard_and_transfer_granularity () =
  let rt, clock, _ = make_multi_rt ~local_budget:(8 * 4096) () in
  (* Build remote copies in both classes. *)
  let small = Array.init 256 (fun _ -> R.tfm_malloc rt 64) in
  let large = R.tfm_malloc rt (32 * 4096) in
  Array.iter (fun p -> R.guard rt ~ptr:p ~size:8 ~write:true) small;
  for k = 0 to 31 do
    R.guard rt ~ptr:(large + (k * 4096)) ~size:8 ~write:true
  done;
  (* Flood both pools so earlier objects are evicted. *)
  let flood_small = Array.init 512 (fun _ -> R.tfm_malloc rt 64) in
  Array.iter (fun p -> R.guard rt ~ptr:p ~size:8 ~write:true) flood_small;
  let flood_large = R.tfm_malloc rt (64 * 4096) in
  for k = 0 to 63 do
    R.guard rt ~ptr:(flood_large + (k * 4096)) ~size:8 ~write:true
  done;
  (* A re-touch of a small value moves 64 bytes, of a large page 4096. *)
  Clock.reset clock;
  R.guard rt ~ptr:small.(0) ~size:8 ~write:false;
  Alcotest.(check int) "small fetch is 64B" 64 (Clock.get clock "net.bytes_in");
  Clock.reset clock;
  R.guard rt ~ptr:large ~size:8 ~write:false;
  Alcotest.(check int) "large fetch is 4KiB" 4096
    (Clock.get clock "net.bytes_in")

let test_multisize_free_realloc () =
  let rt, _, store = make_multi_rt () in
  let p = R.tfm_malloc rt 64 in
  Memstore.store store ~addr:p ~size:8 777;
  (* growing across the class boundary must migrate the data *)
  let q = R.tfm_realloc rt p 50_000 in
  Alcotest.(check int) "moved to large class" 1 (Trackfm.Nc_ptr.size_class q);
  Alcotest.(check int) "data migrated" 777 (Memstore.load store ~addr:q ~size:8);
  R.tfm_free rt q

let test_multisize_rejects_bad_config () =
  let cost = Cost_model.default in
  let clock = Clock.create () in
  let store = Memstore.create () in
  Alcotest.(check bool) "no catch-all rejected" true
    (try
       ignore
         (R.create cost clock store ~object_size:4096 ~local_budget:65536
            ~size_classes:[ (2048, 64, 1.0) ]);
       false
     with Invalid_argument _ -> true)


let test_free_releases_objects () =
  let rt, _, _ = make_rt ~object_size:4096 ~local_budget:(64 * 4096) () in
  let p = R.tfm_malloc rt (16 * 4096) in
  for k = 0 to 15 do
    R.guard rt ~ptr:(p + (k * 4096)) ~size:8 ~write:true
  done;
  let used_before = Aifm.Pool.local_used (R.pool rt) in
  R.tfm_free rt p;
  Alcotest.(check bool) "freed objects released from the budget" true
    (Aifm.Pool.local_used (R.pool rt) <= used_before - (15 * 4096))


let test_reverse_scan_chunks_and_prefetches_backward () =
  (* A downward loop over a large array: the chunk pass must pick it up
     with a negative stride, and the prefetcher must run backwards. *)
  let n = 32 * 1024 in
  let build () =
    let m = Ir.create_module () in
    let b = Builder.create m ~name:"main" ~nparams:0 in
    let p = Builder.call b "malloc" [ Ir.Const (n * 8) ] in
    Builder.for_loop b ~hint:"init" ~init:(Ir.Const 0) ~bound:(Ir.Const n)
      (fun b i ->
        Builder.store b (Builder.binop b Ir.And i (Ir.Const 0xFF))
          ~ptr:(Builder.gep b p ~index:i ~scale:8 ()));
    ignore (Builder.call b "!bench_begin" []);
    (* acc accumulated through memory (a stack cell) so the reverse loop
       needs no accumulator phi *)
    let cell = Builder.alloca b 8 in
    Builder.store b (Ir.Const 0) ~ptr:cell;
    Builder.for_loop_down b ~init:(Ir.Const (n - 1)) ~bound:(Ir.Const (-1))
      (fun b i ->
        let v = Builder.load b (Builder.gep b p ~index:i ~scale:8 ()) in
        let acc = Builder.load b cell in
        Builder.store b
          (Builder.binop b Ir.And (Builder.add b acc v) (Ir.Const 0x3FFFFFFF))
          ~ptr:cell);
    Builder.ret b (Some (Builder.load b cell));
    Verifier.check_module m;
    m
  in
  let expected =
    let acc = ref 0 in
    for i = n - 1 downto 0 do
      acc := (!acc + (i land 0xFF)) land 0x3FFFFFFF
    done;
    !acc
  in
  let m = build () in
  let report =
    Trackfm.Pipeline.run
      { Trackfm.Pipeline.default_config with chunk_mode = `All }
      m
  in
  let reverse_candidate =
    List.exists
      (fun (c : Trackfm.Chunk_pass.candidate) ->
        c.Trackfm.Chunk_pass.byte_stride < 0 && c.Trackfm.Chunk_pass.selected)
      report.Trackfm.Pipeline.chunks.Trackfm.Chunk_pass.candidates
  in
  Alcotest.(check bool) "negative-stride candidate chunked" true
    reverse_candidate;
  let clock = Clock.create () in
  let store = Memstore.create () in
  let rt =
    Trackfm.Runtime.create Cost_model.default clock store ~object_size:4096
      ~local_budget:(n * 2)
  in
  let r = Interp.run (Backend.trackfm rt store) m ~entry:"main" in
  Alcotest.(check int) "reverse scan result" expected r.Interp.ret;
  Alcotest.(check bool) "backward prefetch covered most fetches" true
    (Clock.get clock "net.prefetched_fetches"
    > Clock.get clock "aifm.demand_fetches")


let test_guard_paths_through_sink () =
  (* Section 3.3's debug instrumentation is the telemetry sink: per site,
     which path each guard took and the bytes it brought in. *)
  let clock = Clock.create () in
  let sink = Telemetry.Sink.recording ~series_interval:0 clock in
  let rt =
    R.create ~telemetry:sink Cost_model.default clock (Memstore.create ())
      ~object_size:4096 ~local_budget:4096
  in
  let guard instr ~ptr ~write =
    Telemetry.Sink.set_site sink ~func:"t" ~instr;
    R.guard rt ~ptr ~size:8 ~write
  in
  let p = R.tfm_malloc rt 64 in
  guard 1 ~ptr:p ~write:true;
  guard 2 ~ptr:p ~write:false;
  guard 3 ~ptr:(1 lsl 30) ~write:false;
  (* evict p by touching another object, then re-touch it *)
  let q = R.tfm_malloc rt 8192 in
  guard 4 ~ptr:(q + 4096) ~write:false;
  guard 5 ~ptr:p ~write:false;
  let sites = (Option.get (Telemetry.Sink.recorder sink)).Telemetry.Sink.sites in
  let path instr =
    let s = Telemetry.Site.stat sites { Telemetry.Site.func = "t"; instr } in
    match (s.fast, s.slow, s.custody) with
    | 1, 0, 0 -> "fast"
    | 0, 1, 0 -> if s.bytes_in > 0 then "slow, bytes in" else "slow"
    | 0, 0, 1 -> "custody"
    | f, sl, c -> Printf.sprintf "fast %d slow %d custody %d" f sl c
  in
  Alcotest.(check (list string))
    "paths"
    [ "slow"; "fast"; "custody"; "slow"; "slow, bytes in" ]
    (List.map path [ 1; 2; 3; 4; 5 ]);
  Alcotest.(check int) "one site per guard" 5
    (List.length (Telemetry.Site.rows sites))

let test_pipeline_dump_after () =
  let m = program_with_malloc_loop () in
  let seen = ref [] in
  let config =
    {
      Trackfm.Pipeline.default_config with
      dump_after = Some (fun name _ -> seen := name :: !seen);
    }
  in
  ignore (Trackfm.Pipeline.run config m);
  Alcotest.(check (list string)) "pass order"
    [
      "runtime-init"; "loop-chunking"; "summaries"; "guard-transform";
      "guard-elision"; "libc-transform";
    ]
    (List.rev !seen)

let suite =
  ( "trackfm",
    [
      Alcotest.test_case "nc ptr encoding" `Quick test_nc_ptr_encoding;
      Alcotest.test_case "malloc tagged" `Quick test_malloc_returns_tagged;
      Alcotest.test_case "malloc reuse" `Quick test_malloc_distinct_and_free_reuse;
      Alcotest.test_case "realloc data" `Quick test_realloc_preserves_data;
      Alcotest.test_case "state table size" `Quick test_state_table_size;
      Alcotest.test_case "guard custody" `Quick test_guard_custody_skip;
      Alcotest.test_case "guard fast/slow" `Quick test_guard_fast_vs_slow;
      Alcotest.test_case "guard localizes" `Quick test_guard_localizes_remote;
      Alcotest.test_case "guard spanning" `Quick test_guard_spanning_objects;
      Alcotest.test_case "state table ablation" `Quick
        test_state_table_ablation_costs_more;
      Alcotest.test_case "metadata cache" `Quick test_metadata_cache_model;
      Alcotest.test_case "chunk protocol" `Quick test_chunk_protocol;
      Alcotest.test_case "chunk pins" `Quick test_chunk_pins_against_evacuator;
      Alcotest.test_case "chunk custody" `Quick test_chunk_custody_check;
      Alcotest.test_case "cost equations" `Quick test_cost_model_equations;
      Alcotest.test_case "cost gating" `Quick test_cost_model_gating;
      Alcotest.test_case "cost crossover" `Quick
        test_cost_model_crossover_consistent;
      Alcotest.test_case "init pass" `Quick test_init_pass;
      Alcotest.test_case "libc pass" `Quick test_libc_pass;
      Alcotest.test_case "guard pass stack skip" `Quick test_guard_pass_skips_stack;
      Alcotest.test_case "chunk pass coverage" `Quick
        test_chunk_pass_covers_accesses;
      Alcotest.test_case "full pipeline" `Quick test_pipeline_full;
      Alcotest.test_case "pipeline off mode" `Quick test_pipeline_off_mode_no_chunks;
      Alcotest.test_case "lowering weights" `Quick test_lowering_weights;
      Alcotest.test_case "multisize routing" `Quick test_multisize_routing;
      Alcotest.test_case "multisize granularity" `Quick
        test_multisize_guard_and_transfer_granularity;
      Alcotest.test_case "multisize free/realloc" `Quick
        test_multisize_free_realloc;
      Alcotest.test_case "multisize bad config" `Quick
        test_multisize_rejects_bad_config;
      Alcotest.test_case "free releases objects" `Quick
        test_free_releases_objects;
      Alcotest.test_case "reverse scan chunking" `Quick
        test_reverse_scan_chunks_and_prefetches_backward;
      Alcotest.test_case "guard debug events" `Quick
        test_guard_paths_through_sink;
      Alcotest.test_case "pipeline dump_after" `Quick test_pipeline_dump_after;
    ] )
