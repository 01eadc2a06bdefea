(* Cross-module integration tests: the paper's qualitative claims, each
   checked as an executable assertion at miniature scale. *)

open Workloads

let test_claim_chunking_speeds_up_stream () =
  (* C1 (Fig. 7): loop chunking beats naive guards on STREAM. *)
  let w = Stream.workload ~n:50_000 Stream.Sum in
  (* elision off: the claim compares chunking against *naive* per-access
     guards, which the guard optimizer would otherwise remove itself *)
  let run mode =
    let opts =
      {
        (Driver.tfm_defaults ~local_budget:(w.working_set / 4)) with
        Driver.chunk_mode = mode;
        elide_guards = false;
      }
    in
    (fst (Driver.run_trackfm w.build opts)).Driver.cycles
  in
  let naive = run `Off and chunked = run `All in
  Alcotest.(check bool) "chunked faster" true (chunked < naive);
  let speedup = float_of_int naive /. float_of_int chunked in
  Alcotest.(check bool) "speedup in a plausible band" true
    (speedup > 1.2 && speedup < 6.0)

let test_claim_gate_beats_indiscriminate_on_kmeans () =
  (* C2 (Fig. 8): the profiled cost-model gate beats chunking everything. *)
  let w = Kmeans.workload (Kmeans.default_params ~n:4_000) in
  (* all-local: isolates guard costs, where indiscriminate chunking hurts *)
  let run mode gate =
    let opts =
      {
        (Driver.tfm_defaults ~local_budget:w.working_set) with
        Driver.chunk_mode = mode;
        profile_gate = gate;
      }
    in
    (fst (Driver.run_trackfm w.build opts)).Driver.cycles
  in
  let all = run `All false in
  let gated = run `Gated true in
  Alcotest.(check bool) "gated beats all-loops" true (gated < all)

let test_claim_small_objects_help_hashmap () =
  (* C3 (Fig. 9): fine-grained access patterns want small objects. *)
  let w =
    Hashmap.workload (Hashmap.default_params ~keys:20_000 ~lookups:30_000)
  in
  let run osz =
    let opts =
      {
        (Driver.tfm_defaults ~local_budget:(w.working_set / 4)) with
        Driver.object_size = osz;
      }
    in
    (fst (Driver.run_trackfm ~blobs:(Lazy.force w.blobs) w.build opts))
      .Driver.cycles
  in
  Alcotest.(check bool) "256B beats 4KiB" true (run 256 < run 4096)

let test_claim_large_objects_help_stream () =
  (* C4 (Fig. 10): spatial locality wants large objects. *)
  let w = Stream.workload ~n:50_000 Stream.Copy in
  let run osz =
    let opts =
      {
        (Driver.tfm_defaults ~local_budget:(w.working_set / 4)) with
        Driver.object_size = osz;
      }
    in
    (fst (Driver.run_trackfm w.build opts)).Driver.cycles
  in
  Alcotest.(check bool) "4KiB beats 256B" true (run 4096 < run 256)

let test_claim_prefetching_helps_under_pressure () =
  (* C5 (Fig. 11): prefetch + chunking over chunking alone. *)
  let w = Stream.workload ~n:50_000 Stream.Sum in
  let run prefetch =
    let opts =
      {
        (Driver.tfm_defaults ~local_budget:(w.working_set / 5)) with
        Driver.prefetch;
      }
    in
    (fst (Driver.run_trackfm w.build opts)).Driver.cycles
  in
  let off = run false and on = run true in
  Alcotest.(check bool) "prefetch helps" true (on < off);
  Alcotest.(check bool) "substantially (>2x)" true (off > 2 * on)

let test_claim_trackfm_beats_fastswap_on_stream () =
  (* C6 (Fig. 12). *)
  let w = Stream.workload ~n:50_000 Stream.Sum in
  let local_budget = w.working_set / 4 in
  let tfm, _ = Driver.run_trackfm w.build (Driver.tfm_defaults ~local_budget) in
  let fs = Driver.run_fastswap ~local_budget w.build in
  Alcotest.(check bool) "TrackFM faster than Fastswap" true
    (tfm.Driver.cycles < fs.Driver.cycles)

let test_claim_io_amplification () =
  (* C7 (Fig. 13): Fastswap moves page-size multiples; TrackFM with small
     objects moves drastically less for fine-grained access. *)
  let w =
    Hashmap.workload (Hashmap.default_params ~keys:20_000 ~lookups:30_000)
  in
  let blobs = Lazy.force w.blobs and local_budget = w.working_set / 4 in
  let opts =
    { (Driver.tfm_defaults ~local_budget) with Driver.object_size = 64 }
  in
  let tfm, _ = Driver.run_trackfm ~blobs w.build opts in
  let fs = Driver.run_fastswap ~blobs ~local_budget w.build in
  let tfm_bytes = Driver.counter tfm "net.bytes_in" in
  let fs_bytes = Driver.counter fs "net.bytes_in" in
  Alcotest.(check bool) "10x+ less data moved" true (fs_bytes > 10 * tfm_bytes)

let test_claim_analytics_three_systems_agree_and_rank () =
  (* C8 (Fig. 14): under memory pressure TrackFM and AIFM stay close;
     each system is normalized to its own all-local run. *)
  let p = Analytics.default_params ~rows:30_000 in
  let w = Analytics.workload p in
  let slowdown run_at =
    let constrained = run_at (w.working_set / 8)
    and unconstrained = run_at (w.working_set * 2) in
    float_of_int constrained /. float_of_int unconstrained
  in
  let tfm_slow =
    slowdown (fun budget ->
        (fst
           (Driver.run_trackfm w.build
              (Driver.tfm_defaults ~local_budget:budget)))
          .Driver.cycles)
  in
  let fs_slow =
    slowdown (fun budget ->
        (Driver.run_fastswap ~local_budget:budget w.build).Driver.cycles)
  in
  let aifm_slow =
    slowdown (fun budget ->
        let ck, clock = Analytics.run_aifm ~local_budget:budget p in
        Alcotest.(check int) "aifm checksum" (Lazy.force w.oracle) ck;
        Clock.cycles clock)
  in
  Alcotest.(check bool) "fastswap degrades most" true
    (fs_slow > tfm_slow && fs_slow > aifm_slow);
  (* The paper's "within 10%" holds at 31 GB scale; at this miniature
     scale the two systems stay within ~50% of each other (see
     EXPERIMENTS.md deviation 4), and crucially both stay far below
     Fastswap. *)
  Alcotest.(check bool) "TrackFM near AIFM" true
    (tfm_slow /. aifm_slow < 1.5 && aifm_slow /. tfm_slow < 1.5)

let test_claim_memcached_converges_with_skew () =
  (* C10 (Fig. 16): higher skew helps Fastswap amortize faults. *)
  let run skew =
    let w =
      Memcached.workload
        (Memcached.default_params ~keys:20_000 ~gets:10_000 ~skew)
    in
    (Driver.run_fastswap ~blobs:(Lazy.force w.blobs)
       ~local_budget:(w.working_set / 10) w.build)
      .Driver.cycles
  in
  Alcotest.(check bool) "skew 1.3 faster than 1.05 under fastswap" true
    (run 1.3 < run 1.05)

let test_claim_o1_reduces_guard_counts () =
  (* C11/Fig. 17b: pre-optimizing reduces injected guards. *)
  let w = Nas.workload (Nas.default_params Nas.FT) in
  let guards_of build =
    let m = build () in
    let report = Trackfm.Pipeline.run Trackfm.Pipeline.default_config m in
    report.Trackfm.Pipeline.guards.Trackfm.Guard_pass.guarded_loads
    + report.Trackfm.Pipeline.guards.Trackfm.Guard_pass.guarded_stores
  in
  let plain = guards_of w.build and o1 = guards_of (Tfm_opt.O1.build w.build) in
  Alcotest.(check bool) "O1 cuts static guards" true (o1 * 3 < plain * 2)

let test_autotune_picks_sensible_sizes () =
  (* Section 3.2's proposed autotuner: for the Zipfian hashmap it must
     prefer a small object; for STREAM a large one. *)
  let hm =
    Hashmap.workload (Hashmap.default_params ~keys:20_000 ~lookups:20_000)
  in
  let best_hm, _ =
    Driver.autotune_object_size ~blobs:(Lazy.force hm.blobs) hm.build
      ~local_budget:(hm.working_set / 4)
  in
  Alcotest.(check bool) "hashmap wants small objects" true (best_hm <= 512);
  let st = Stream.workload ~n:40_000 Stream.Copy in
  let best_st, _ =
    Driver.autotune_object_size
      ~candidates:[ 256; 1024; 4096 ]
      st.build ~local_budget:(st.working_set / 4)
  in
  Alcotest.(check bool) "stream wants large objects" true (best_st >= 1024)

let test_compile_costs_sane () =
  (* Section 4.6: code growth is bounded and compile time is small. *)
  let m = (Stream.workload ~n:1_000 Stream.Copy).build () in
  let report = Trackfm.Pipeline.run Trackfm.Pipeline.default_config m in
  let growth = Trackfm.Pipeline.code_growth report in
  Alcotest.(check bool) "growth in [1, 8]" true (growth >= 1.0 && growth < 8.0);
  Alcotest.(check bool) "compile time sub-second" true
    (report.Trackfm.Pipeline.compile_time_s < 1.0)

let test_guard_counts_scale_with_accesses () =
  (* Fig. 14b analog: guard events track the access volume. *)
  let count n =
    let w = Stream.workload ~n Stream.Sum in
    let opts =
      {
        (Driver.tfm_defaults ~local_budget:w.working_set) with
        Driver.chunk_mode = `Off;
        (* raw per-access guard volume; range elision would hoist the
           whole loop's custody and break the linear scaling on purpose *)
        elide_guards = false;
      }
    in
    let o, _ = Driver.run_trackfm w.build opts in
    Driver.counter o "tfm.fast_guards" + Driver.counter o "tfm.slow_guards"
  in
  let c1 = count 2_000 and c2 = count 4_000 in
  Alcotest.(check bool) "roughly doubles" true
    (c2 > (2 * c1 * 9 / 10) && c2 < (2 * c1 * 11 / 10))

let suite =
  ( "integration (paper claims)",
    [
      Alcotest.test_case "C1 chunking speedup" `Slow
        test_claim_chunking_speeds_up_stream;
      Alcotest.test_case "C2 gated beats all" `Slow
        test_claim_gate_beats_indiscriminate_on_kmeans;
      Alcotest.test_case "C3 small objects hashmap" `Slow
        test_claim_small_objects_help_hashmap;
      Alcotest.test_case "C4 large objects stream" `Slow
        test_claim_large_objects_help_stream;
      Alcotest.test_case "C5 prefetch helps" `Slow
        test_claim_prefetching_helps_under_pressure;
      Alcotest.test_case "C6 beats fastswap on stream" `Slow
        test_claim_trackfm_beats_fastswap_on_stream;
      Alcotest.test_case "C7 io amplification" `Slow test_claim_io_amplification;
      Alcotest.test_case "C8 analytics three systems" `Slow
        test_claim_analytics_three_systems_agree_and_rank;
      Alcotest.test_case "C10 memcached skew" `Slow
        test_claim_memcached_converges_with_skew;
      Alcotest.test_case "C11 O1 guard reduction" `Quick
        test_claim_o1_reduces_guard_counts;
      Alcotest.test_case "autotuner picks sizes" `Slow
        test_autotune_picks_sensible_sizes;
      Alcotest.test_case "compile costs" `Quick test_compile_costs_sane;
      Alcotest.test_case "guard counts scale" `Quick
        test_guard_counts_scale_with_accesses;
    ] )
