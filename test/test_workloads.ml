(* Per-workload semantic validation: every workload, every backend, same
   checksum. These are the correctness proofs that the compiler pipeline
   preserves program semantics end to end. *)

open Workloads

(* Never shrink below a handful of 4 KiB objects: chunked loops pin one
   object per stream, so a budget below ~3 objects is unusable (as a real
   AIFM deployment would also require a minimum local memory). *)
let budget_frac ws f = max (8 * 4096) (ws * f / 100)

(* Every backend returns the oracle, and the far-memory runs leave local
   memory: TrackFM fetches objects and Fastswap takes major faults. *)
let check_all_backends (w : Workload.t) =
  let blobs = Lazy.force w.blobs and expected = Lazy.force w.oracle in
  let local_budget = budget_frac w.working_set 30 in
  let local = Driver.run_local ~blobs w.build in
  Alcotest.(check int) (w.name ^ " local") expected local.Driver.ret;
  let opts = Driver.tfm_defaults ~local_budget in
  let tfm, _ = Driver.run_trackfm ~blobs w.build opts in
  Alcotest.(check int) (w.name ^ " trackfm") expected tfm.Driver.ret;
  Alcotest.(check bool) (w.name ^ " trackfm fetches") true
    (Clock.get tfm.Driver.clock "net.fetches" > 0);
  let fs = Driver.run_fastswap ~blobs ~local_budget w.build in
  Alcotest.(check int) (w.name ^ " fastswap") expected fs.Driver.ret;
  Alcotest.(check bool) (w.name ^ " fastswap faults") true
    (Clock.get fs.Driver.clock "fastswap.major_faults" > 0)

let test_stream_kernels () =
  List.iter
    (fun kernel -> check_all_backends (Stream.workload ~n:30_000 kernel))
    [ Stream.Sum; Stream.Copy; Stream.Scale; Stream.Triad ]

let test_stream_chunk_modes_agree () =
  let w = Stream.workload ~n:5_000 Stream.Sum in
  let opts = Driver.tfm_defaults ~local_budget:(budget_frac w.working_set 25) in
  List.iter
    (fun mode ->
      let o, _ = Driver.run_trackfm w.build { opts with chunk_mode = mode } in
      Alcotest.(check int) "mode-independent result" (Lazy.force w.oracle)
        o.Driver.ret)
    [ `Off; `All; `Gated ]

let test_stream_object_sizes_agree () =
  let w = Stream.workload ~n:5_000 Stream.Copy in
  let opts = Driver.tfm_defaults ~local_budget:(budget_frac w.working_set 25) in
  List.iter
    (fun osz ->
      let o, _ = Driver.run_trackfm w.build { opts with object_size = osz } in
      Alcotest.(check int)
        (Printf.sprintf "object size %d" osz)
        (Lazy.force w.oracle) o.Driver.ret)
    [ 64; 256; 1024; 4096 ]

let test_kmeans_all_backends () =
  check_all_backends (Kmeans.workload (Kmeans.default_params ~n:2_000))

let test_kmeans_chunk_modes_agree () =
  let w = Kmeans.workload (Kmeans.default_params ~n:1_500) in
  let opts = Driver.tfm_defaults ~local_budget:(budget_frac w.working_set 40) in
  List.iter
    (fun (mode, gate) ->
      let o, _ =
        Driver.run_trackfm w.build
          { opts with chunk_mode = mode; profile_gate = gate }
      in
      Alcotest.(check int) "kmeans result stable" (Lazy.force w.oracle)
        o.Driver.ret)
    [ (`Off, false); (`All, false); (`Gated, false); (`Gated, true) ]

let test_hashmap_all_backends () =
  check_all_backends
    (Hashmap.workload (Hashmap.default_params ~keys:3_000 ~lookups:5_000))

let test_hashmap_trace_deterministic () =
  let blobs () =
    Lazy.force
      (Hashmap.workload (Hashmap.default_params ~keys:1_000 ~lookups:2_000))
        .blobs
  in
  Alcotest.(check (list (pair int bytes))) "same blob for same seed"
    (blobs ()) (blobs ())

let test_memcached_all_backends () =
  check_all_backends
    (Memcached.workload
       (Memcached.default_params ~keys:2_000 ~gets:3_000 ~skew:1.1))

let test_memcached_skews_valid () =
  List.iter
    (fun skew ->
      let w =
        Memcached.workload
          (Memcached.default_params ~keys:1_000 ~gets:1_000 ~skew)
      in
      let o = Driver.run_local ~blobs:(Lazy.force w.blobs) w.build in
      Alcotest.(check int)
        (Printf.sprintf "skew %.2f" skew)
        (Lazy.force w.oracle) o.Driver.ret)
    [ 1.0; 1.05; 1.2; 1.3 ]

let test_analytics_all_backends () =
  check_all_backends (Analytics.workload (Analytics.default_params ~rows:8_000))

let test_llist_all_backends () =
  check_all_backends (Llist.workload ~nodes:4_000 ~tnodes:2_047)

let test_chase_all_backends () =
  check_all_backends (Chase.workload ~nodes:10_000)

(* The whole point of the workload: its dependent loads are hidden in
   helpers, so static routing finds them only through the shape
   analysis. With shapes off the static router must route nothing. *)
let test_llist_routes_via_shapes () =
  let w = Llist.workload ~nodes:400 ~tnodes:127 in
  let opts =
    {
      (Driver.tfm_defaults ~local_budget:(budget_frac w.working_set 30)) with
      route = `Static;
    }
  in
  let o, report = Driver.run_trackfm w.build opts in
  Alcotest.(check int) "llist routed checksum" (Lazy.force w.oracle)
    o.Driver.ret;
  Alcotest.(check bool) "helper-hidden sites statically routed" true
    (report.Trackfm.Pipeline.routing.Trackfm.Route_pass.routed >= 1);
  let o_off, report_off =
    Driver.run_trackfm w.build { opts with use_shapes = false }
  in
  Alcotest.(check int) "llist unrouted checksum" (Lazy.force w.oracle)
    o_off.Driver.ret;
  Alcotest.(check int) "no static routes without shape facts" 0
    report_off.Trackfm.Pipeline.routing.Trackfm.Route_pass.routed

let test_analytics_aifm_port_matches () =
  let p = Analytics.default_params ~rows:8_000 in
  let w = Analytics.workload p in
  let ck, clock =
    Analytics.run_aifm ~local_budget:(budget_frac w.working_set 30) p
  in
  Alcotest.(check int) "AIFM port same checksum" (Lazy.force w.oracle) ck;
  Alcotest.(check bool) "AIFM port moved data" true
    (Clock.get clock "net.bytes_in" > 0)

let test_nas_kernels_all_backends () =
  (* Each kernel at its sub-class size runs the full pipeline; class 1 is
     the nas-* cells of @ci/engines. *)
  List.iter
    (fun kernel ->
      let w = Nas.sub_class kernel in
      let expected = Lazy.force w.oracle in
      let local = Driver.run_local w.build in
      Alcotest.(check int) (w.name ^ " local") expected local.Driver.ret;
      let tfm, _ =
        Driver.run_trackfm w.build
          (Driver.tfm_defaults ~local_budget:(budget_frac w.working_set 30))
      in
      Alcotest.(check int) (w.name ^ " trackfm") expected tfm.Driver.ret)
    [ Nas.CG; Nas.FT; Nas.MG; Nas.SP ]

let test_nas_table3_metadata () =
  Alcotest.(check int) "IS paper GB" 34 (Nas.paper_memory_gb Nas.IS);
  Alcotest.(check int) "SP paper LoC" 2013 (Nas.paper_loc Nas.SP);
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Nas.kernel_name k ^ " ws positive")
        true
        ((Nas.workload (Nas.default_params k)).working_set > 0))
    Nas.all_kernels

let test_driver_counters_exposed () =
  let w = Stream.workload ~n:2_000 Stream.Sum in
  let opts = Driver.tfm_defaults ~local_budget:(budget_frac w.working_set 25) in
  let o, report = Driver.run_trackfm w.build opts in
  Alcotest.(check bool) "guard or boundary events recorded" true
    (Driver.counter o "tfm.fast_guards" + Driver.counter o "tfm.boundary_checks"
    > 0);
  Alcotest.(check bool) "pipeline saw the libc call" true
    (report.Trackfm.Pipeline.libc_rewrites >= 1)

(* [Chunk_pass.needs_profile] asks of the raw build whether a profile
   can change a gated verdict. The loops of [Chunk_pass.run]'s
   candidates on a raw build, the enumeration the predicate walks, are
   the loops of the pipeline's candidates; only the two pointer-chasing
   workloads have none. Where the predicate is false, [run] selects the
   same loops without a profile as with the workload's full profile.
   At these sizes four workloads still need one. *)
let test_gate_loops_on_raw_build () =
  let gated ?profile m =
    Trackfm.Chunk_pass.run Cost_model.default ~object_size:4096 ~mode:`Gated
      ?profile m
  in
  let loops (r : Trackfm.Chunk_pass.report) =
    List.sort_uniq compare
      (List.map
         (fun (c : Trackfm.Chunk_pass.candidate) -> (c.func, c.header))
         r.candidates)
  in
  let verdicts (r : Trackfm.Chunk_pass.report) =
    List.map
      (fun (c : Trackfm.Chunk_pass.candidate) ->
        ((c.func, c.header), (c.byte_stride, c.selected)))
      r.candidates
  in
  let needing =
    List.filter_map
      (fun { Catalog.workload = { Workload.name; build; blobs; _ }; _ } ->
        let blobs = Lazy.force blobs in
        let raw = build () in
        let needs =
          Trackfm.Chunk_pass.needs_profile Cost_model.default
            ~object_size:4096 raw
        in
        let behind = gated raw in
        let piped =
          loops
            (Trackfm.Pipeline.run Trackfm.Pipeline.default_config (build ()))
              .Trackfm.Pipeline.chunks
        in
        Alcotest.(check (list (pair string string)))
          (name ^ ": pipeline candidates") (loops behind) piped;
        Alcotest.(check bool)
          (name ^ ": has gated loops")
          (not (List.mem name [ "pointer-chase"; "llist" ]))
          (behind.candidates <> []);
        if (not needs) && behind.candidates <> [] then
          Alcotest.(
            check (list (pair (pair string string) (pair int bool))))
            (name ^ ": verdicts as with a profile")
            (verdicts
               (gated ~profile:(Driver.profile_of ~blobs build) (build ())))
            (verdicts behind);
        if needs then Some name else None)
      (Catalog.all ())
  in
  Alcotest.(check (list string))
    "workloads a profile can change"
    [ "kmeans"; "memcached"; "analytics"; "nas-mg" ]
    needing

(* When no verdict can change, [run_trackfm] builds the pre-run's
   module, asks the predicate and runs nothing: still two builds, the
   same run as one handed the full profile, and a compile that read no
   profile. Stream-sum's loops have constant trip counts at which the
   gate decides as it does without a profile; kmeans's short loops do
   not, so every candidate of its compile gets a measured trip count. *)
let test_prerun_only_for_gated_loops () =
  let observe ((o : Driver.outcome), report) =
    ( (o.ret, o.cycles, o.instrs),
      (Clock.counters o.clock, Trackfm.Pipeline.code_growth report) )
  in
  let same =
    Alcotest.(
      pair (triple int int int) (pair (list (pair string int)) (float 0.0)))
  in
  let candidates (_, report) =
    report.Trackfm.Pipeline.chunks.Trackfm.Chunk_pass.candidates
  in
  List.iter
    (fun { Workload.name; build; working_set; _ } ->
      let opts =
        Driver.tfm_defaults ~local_budget:(budget_frac working_set 30)
      in
      let builds = ref 0 in
      let counted () =
        incr builds;
        build ()
      in
      let run = Driver.run_trackfm counted opts in
      Alcotest.(check int) (name ^ ": builds") 2 !builds;
      Alcotest.check same
        (name ^ ": as with a profile")
        (observe
           (Driver.run_trackfm ~profile:(Driver.profile_of build) build opts))
        (observe run);
      Alcotest.(check bool)
        (name ^ ": has gated loops")
        (name = "stream-sum")
        (candidates run <> []);
      List.iter
        (fun (c : Trackfm.Chunk_pass.candidate) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s %s/%s unprofiled" name c.func c.header)
            true (c.avg_trip = None))
        (candidates run))
    [
      Llist.workload ~nodes:600 ~tnodes:257;
      Chase.workload ~nodes:2_000;
      Stream.workload ~n:5_000 Stream.Sum;
    ];
  let km = Kmeans.workload (Kmeans.default_params ~n:1_500) in
  let run =
    Driver.run_trackfm km.build
      (Driver.tfm_defaults ~local_budget:(budget_frac km.working_set 25))
  in
  Alcotest.(check bool) "kmeans has candidates" true (candidates run <> []);
  List.iter
    (fun (c : Trackfm.Chunk_pass.candidate) ->
      Alcotest.(check bool)
        (Printf.sprintf "kmeans %s/%s profiled" c.func c.header)
        true (c.avg_trip <> None))
    (candidates run)

(* The catalog names each workload once, finds each by its name and no
   other, and computes no oracle and no input blob until one is used, so
   [trackfm_cli -w NAME] pays only for NAME's. A workload without blobs
   has [lazy []], which is a value from the start and computes nothing. *)
let test_catalog () =
  let name (e : Catalog.entry) = e.workload.name in
  let entries = Catalog.all () in
  let names = List.map name entries in
  Alcotest.(check int) "15 workloads" 15 (List.length names);
  Alcotest.(check (list string))
    "names unique" (List.sort compare names)
    (List.sort_uniq compare names);
  let found =
    List.map
      (fun n ->
        match Catalog.find n with
        | Some e ->
            Alcotest.(check string) ("find " ^ n) n (name e);
            e
        | None -> Alcotest.failf "find %s: not found" n)
      names
  in
  Alcotest.(check bool) "unknown name" true
    (Option.is_none (Catalog.find "nope"));
  List.iter
    (fun ({ workload = w; _ } : Catalog.entry) ->
      Alcotest.(check bool) (w.name ^ ": oracle unforced") false
        (Lazy.is_val w.oracle);
      Alcotest.(check bool) (w.name ^ ": blobs unforced") true
        ((not (Lazy.is_val w.blobs)) || Lazy.force w.blobs = []))
    (entries @ found);
  match Catalog.find "stream-sum" with
  | None -> Alcotest.fail "no stream-sum"
  | Some { workload = w; _ } ->
      let local = Driver.run_local ~blobs:(Lazy.force w.blobs) w.build in
      Alcotest.(check int) "stream-sum oracle" local.Driver.ret
        (Lazy.force w.oracle)

let suite =
  ( "workloads",
    [
      Alcotest.test_case "stream kernels x backends" `Quick test_stream_kernels;
      Alcotest.test_case "stream chunk modes agree" `Quick
        test_stream_chunk_modes_agree;
      Alcotest.test_case "stream object sizes agree" `Quick
        test_stream_object_sizes_agree;
      Alcotest.test_case "kmeans x backends" `Quick test_kmeans_all_backends;
      Alcotest.test_case "kmeans chunk modes agree" `Quick
        test_kmeans_chunk_modes_agree;
      Alcotest.test_case "hashmap x backends" `Quick test_hashmap_all_backends;
      Alcotest.test_case "hashmap trace deterministic" `Quick
        test_hashmap_trace_deterministic;
      Alcotest.test_case "memcached x backends" `Quick test_memcached_all_backends;
      Alcotest.test_case "memcached skews" `Quick test_memcached_skews_valid;
      Alcotest.test_case "analytics x backends" `Quick test_analytics_all_backends;
      Alcotest.test_case "llist x backends" `Quick test_llist_all_backends;
      Alcotest.test_case "pointer-chase x backends" `Quick
        test_chase_all_backends;
      Alcotest.test_case "llist routes via shapes" `Quick
        test_llist_routes_via_shapes;
      Alcotest.test_case "analytics AIFM port" `Quick
        test_analytics_aifm_port_matches;
      Alcotest.test_case "nas x backends" `Slow test_nas_kernels_all_backends;
      Alcotest.test_case "nas table3 metadata" `Quick test_nas_table3_metadata;
      Alcotest.test_case "driver counters" `Quick test_driver_counters_exposed;
      Alcotest.test_case "gate loops on the raw build" `Quick
        test_gate_loops_on_raw_build;
      Alcotest.test_case "pre-run only for gated loops" `Quick
        test_prerun_only_for_gated_loops;
      Alcotest.test_case "catalog" `Quick test_catalog;
    ] )
