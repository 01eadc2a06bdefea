(* Guard elision study: the static-analysis optimizer's effect on static
   guard sites and dynamic guard events, workload by workload.

   Each row compares a pipeline run with the optimizer off (naive guard
   injection) against one with it on (same-pointer elision, congruent
   widening, RMW upgrade, loop hoisting, loop-range elision — all
   certified by the coverage checker's witness re-verification). The
   checksum must be bit-identical either way: elision only removes
   checks the dataflow proves redundant. *)

open Bench_common

let guard_elision () =
  let t =
    Tfm_util.Table.create
      ~title:
        "guard elision: static sites and dynamic guard events, optimizer \
         off vs on"
      ~columns:
        [
          "workload";
          "static off";
          "static on";
          "dyn guards off";
          "dyn guards on";
          "dyn reduction";
          "cycles off";
          "cycles on";
        ]
  in
  let static_guards (r : Trackfm.Pipeline.report) =
    r.Trackfm.Pipeline.guards.Trackfm.Guard_pass.guarded_loads
    + r.Trackfm.Pipeline.guards.Trackfm.Guard_pass.guarded_stores
    - Trackfm.Elide_pass.total_elided r.Trackfm.Pipeline.elision
    + r.Trackfm.Pipeline.elision.Trackfm.Elide_pass.hoisted
  in
  let dynamic_guards (o : Driver.outcome) =
    Driver.counter o "tfm.fast_guards"
    + Driver.counter o "tfm.slow_guards"
    + Driver.counter o "tfm.custody_skips"
  in
  let row name ?blobs ~chunk_mode ~ws build =
    let budget = budget_of ws 100 in
    let run elide_guards =
      tfm ?blobs
        {
          (tfm_opts ~budget) with
          Driver.chunk_mode;
          profile_gate = false;
          elide_guards;
        }
        build
    in
    let off, r_off = run false and on, r_on = run true in
    assert (off.Driver.ret = on.Driver.ret);
    let g_off = dynamic_guards off and g_on = dynamic_guards on in
    let reduction =
      if g_off = 0 then 0.0
      else 100.0 *. float_of_int (g_off - g_on) /. float_of_int g_off
    in
    Tfm_util.Table.add_rowf t "%s | %d | %d | %d | %d | %.1f%% | %d | %d" name
      (static_guards r_off) (static_guards r_on) g_off g_on reduction
      off.Driver.cycles on.Driver.cycles;
    (g_off, g_on)
  in
  let n = scaled 50_000 in
  let stream_off =
    row "stream-sum (chunk off)" ~chunk_mode:`Off
      ~ws:(Stream.working_set_bytes ~n ~kernel:Stream.Sum ())
      (fun () -> Stream.build ~n ~kernel:Stream.Sum ())
  in
  ignore
    (row "stream-copy (chunk off)" ~chunk_mode:`Off
       ~ws:(Stream.working_set_bytes ~n ~kernel:Stream.Copy ())
       (fun () -> Stream.build ~n ~kernel:Stream.Copy ()));
  let kp = Kmeans.default_params ~n:(scaled 4_000) in
  let kmeans_gated =
    row "kmeans (gated)" ~chunk_mode:`Gated
      ~ws:(Kmeans.working_set_bytes kp)
      (fun () -> Kmeans.build kp ())
  in
  ignore
    (row "kmeans (chunk off)" ~chunk_mode:`Off
       ~ws:(Kmeans.working_set_bytes kp)
       (fun () -> Kmeans.build kp ()));
  let hp = Hashmap.default_params ~keys:(scaled 10_000) ~lookups:(scaled 15_000) in
  ignore
    (row "hashmap" ~blobs:[ (0, Hashmap.trace_blob hp) ] ~chunk_mode:`Gated
       ~ws:(Hashmap.working_set_bytes hp)
       (fun () -> Hashmap.build hp ()));
  let ap = Analytics.default_params ~rows:(scaled 10_000) in
  ignore
    (row "analytics" ~chunk_mode:`Gated
       ~ws:(Analytics.working_set_bytes ap)
       (fun () -> Analytics.build ap ()));
  report_table t;
  let stream_reduced = snd stream_off < fst stream_off in
  let kmeans_reduced = snd kmeans_gated < fst kmeans_gated in
  print_expectation
    ~paper:
      "a guard dominated by an equivalent guard is pure overhead; the \
       compiler analyses remove what they can prove redundant (Sections \
       3.1/3.3)"
    ~ours:
      (Printf.sprintf
         "dynamic guards drop on stream (%s) and kmeans (%s) with \
          bit-identical checksums; every elision carries a witness the \
          checker re-proves"
         (if stream_reduced then "yes" else "NO")
         (if kmeans_reduced then "yes" else "NO"))
