(* Figures 13-16: application benchmarks. *)

open Bench_common

(* Figure 13: I/O amplification on the hashmap, TrackFM 64B vs Fastswap. *)
let fig13 () =
  let w =
    Hashmap.workload
      (Hashmap.default_params ~keys:(scaled 150_000) ~lookups:(scaled 200_000))
  in
  let ws = w.working_set in
  let t =
    Tfm_util.Table.create
      ~title:"Figure 13: hashmap, TrackFM 64B objects vs Fastswap"
      ~columns:
        [ "local mem %"; "TFM time (ms)"; "FS time (ms)"; "TFM GB in"; "FS GB in" ]
  in
  let amp = ref (0.0, 0.0) in
  let profile = profile w in
  List.iter
    (fun pct ->
      let budget = budget_of ws pct in
      let tf, _ =
        tfm ~profile { (tfm_opts ~budget) with Driver.object_size = 64 } w
      in
      let fs = fastswap ~budget w in
      let tb = gb (Driver.counter tf "net.bytes_in") in
      let fb = gb (Driver.counter fs "net.bytes_in") in
      if pct = 25 then amp := (tb, fb);
      Tfm_util.Table.add_rowf t "%d | %.1f | %.1f | %.3f | %.3f" pct
        (cycles_to_seconds tf.Driver.cycles *. 1e3)
        (cycles_to_seconds fs.Driver.cycles *. 1e3)
        tb fb)
    short_sweep;
  report_table t;
  let tb, fb = !amp in
  let wsgb = gb ws in
  Printf.printf
    "amplification at 25%% local: TrackFM moves %.1fx the working set, \
     Fastswap %.1fx (paper: 2.3x vs 43x)\n"
    (tb /. wsgb) (fb /. wsgb);
  print_expectation
    ~paper:"Fastswap transfers 43x the working set; TrackFM 2.3x; ~12x speedup"
    ~ours:"orders-of-magnitude transfer gap and a consistent time win"

(* Figure 14: the analytics application across all three systems. Each
   system is normalized to its own all-local run (the paper's
   'slowdown vs local-only'). *)
let fig14 () =
  let p = Analytics.default_params ~rows:(scaled 250_000) in
  let w = Analytics.workload p in
  let ws = w.working_set in
  let profile = profile w in
  let tfm_at budget = fst (tfm ~profile (tfm_opts ~budget) w) in
  let fs_at budget = fastswap ~budget w in
  let aifm_at budget =
    let ck, clock = Analytics.run_aifm ~local_budget:budget p in
    assert (ck = Lazy.force w.oracle);
    clock
  in
  let tfm_base = (tfm_at (2 * ws)).Driver.cycles in
  let fs_base = (fs_at (2 * ws)).Driver.cycles in
  let aifm_base = Clock.cycles (aifm_at (2 * ws)) in
  let t =
    Tfm_util.Table.create
      ~title:"Figure 14a: analytics slowdown vs local-only"
      ~columns:[ "local mem %"; "TrackFM"; "Fastswap"; "AIFM" ]
  in
  let t2 =
    Tfm_util.Table.create
      ~title:"Figure 14b: guard checks (TrackFM) vs page faults (Fastswap)"
      ~columns:[ "local mem %"; "TFM guards"; "TFM slow"; "FS major faults" ]
  in
  let tfm_pts = ref [] and fs_pts = ref [] and aifm_pts = ref [] in
  let fs_faults = ref [] and tfm_slow_guards = ref [] in
  List.iter
    (fun pct ->
      let budget = budget_of ws pct in
      let tf = tfm_at budget in
      let fs = fs_at budget in
      let ai = aifm_at budget in
      let tslow = float_of_int tf.Driver.cycles /. float_of_int tfm_base in
      let fslow = float_of_int fs.Driver.cycles /. float_of_int fs_base in
      let aslow = float_of_int (Clock.cycles ai) /. float_of_int aifm_base in
      tfm_pts := (float_of_int pct, tslow) :: !tfm_pts;
      fs_pts := (float_of_int pct, fslow) :: !fs_pts;
      aifm_pts := (float_of_int pct, aslow) :: !aifm_pts;
      fs_faults :=
        float_of_int (Driver.counter fs "fastswap.major_faults") :: !fs_faults;
      tfm_slow_guards :=
        float_of_int (Driver.counter tf "tfm.slow_guards") :: !tfm_slow_guards;
      Tfm_util.Table.add_rowf t "%d | %.2f | %.2f | %.2f" pct tslow fslow aslow;
      Tfm_util.Table.add_rowf t2 "%d | %d | %d | %d" pct
        (Driver.counter tf "tfm.fast_guards" + Driver.counter tf "tfm.slow_guards")
        (Driver.counter tf "tfm.slow_guards")
        (Driver.counter fs "fastswap.major_faults"))
    [ 5; 10; 25; 50; 75; 100 ];
  report_table t;
  report_table t2;
  Tfm_util.Ascii_plot.print ~x_label:"local mem %"
    ~title:"Figure 14a: slowdown vs local-only"
    [
      { Tfm_util.Ascii_plot.label = "TrackFM"; points = !tfm_pts };
      { label = "Fastswap"; points = !fs_pts };
      { label = "AIFM"; points = !aifm_pts };
    ];
  (* The paper: "both event counts strongly correlate with overall
     performance". Quantify it. *)
  let arr l = Array.of_list (List.map snd l) in
  Printf.printf
    "correlation: pearson r(FS major faults, FS slowdown) = %.3f;      r(TFM slow guards, TFM slowdown) = %.3f
"
    (Tfm_util.Stats.pearson (Array.of_list !fs_faults) (arr !fs_pts))
    (Tfm_util.Stats.pearson (Array.of_list !tfm_slow_guards) (arr !tfm_pts));
  print_expectation
    ~paper:
      "TrackFM within 10% of AIFM; Fastswap degrades to ~4.5x when memory \
       is constrained; event counts track performance"
    ~ours:"TrackFM tracks AIFM closely; Fastswap degrades fastest"

(* Figure 15: chunking variants on the analytics application. *)
let fig15 () =
  let w =
    Analytics.workload (Analytics.default_params ~rows:(scaled 250_000))
  in
  let ws = w.working_set in
  let profile = profile w in
  let cycles budget chunk_mode =
    (fst (tfm ~profile { (tfm_opts ~budget) with Driver.chunk_mode } w))
      .Driver.cycles
  in
  let base_local = cycles (2 * ws) `Off in
  let t =
    Tfm_util.Table.create
      ~title:"Figure 15: analytics, chunking variants (slowdown vs local)"
      ~columns:[ "local mem %"; "baseline"; "all loops"; "high-density only" ]
  in
  List.iter
    (fun pct ->
      let budget = budget_of ws pct in
      let f mode =
        float_of_int (cycles budget mode) /. float_of_int base_local
      in
      Tfm_util.Table.add_rowf t "%d | %.2f | %.2f | %.2f" pct (f `Off) (f `All)
        (f `Gated))
    [ 5; 10; 25; 50; 75; 100 ];
  report_table t;
  print_expectation
    ~paper:
      "chunking the low-density aggregation loops hurts; the cost model \
       keeps only the profitable ones"
    ~ours:"gated <= all-loops everywhere; gated beats baseline"

(* Figure 16: memcached skew sweep. *)
let fig16 () =
  let skews = [ 1.0; 1.05; 1.1; 1.15; 1.2; 1.25; 1.3 ] in
  let t =
    Tfm_util.Table.create
      ~title:"Figure 16a: memcached throughput (KOps/s) by Zipf skew"
      ~columns:[ "skew"; "TrackFM"; "Fastswap"; "All local" ]
  in
  let t2 =
    Tfm_util.Table.create
      ~title:"Figure 16b: guards (TrackFM) vs faults (Fastswap)"
      ~columns:[ "skew"; "TFM guards"; "FS major faults" ]
  in
  let t3 =
    Tfm_util.Table.create ~title:"Figure 16c: data transferred (GB)"
      ~columns:[ "skew"; "TrackFM"; "Fastswap" ]
  in
  let tfm_pts = ref [] and fs_pts = ref [] and local_pts = ref [] in
  List.iter
    (fun skew ->
      let p =
        Memcached.default_params ~keys:(scaled 150_000) ~gets:(scaled 80_000)
          ~skew
      in
      let w = Memcached.workload p in
      let budget = budget_of w.working_set 8 in
      let tf, _ = tfm { (tfm_opts ~budget) with Driver.object_size = 64 } w in
      let fs = fastswap ~budget w in
      let lo = local w in
      tfm_pts := (skew, kops p.Memcached.gets tf.Driver.cycles) :: !tfm_pts;
      fs_pts := (skew, kops p.Memcached.gets fs.Driver.cycles) :: !fs_pts;
      local_pts := (skew, kops p.Memcached.gets lo.Driver.cycles) :: !local_pts;
      Tfm_util.Table.add_rowf t "%.2f | %.1f | %.1f | %.1f" skew
        (kops p.Memcached.gets tf.Driver.cycles)
        (kops p.Memcached.gets fs.Driver.cycles)
        (kops p.Memcached.gets lo.Driver.cycles);
      Tfm_util.Table.add_rowf t2 "%.2f | %d | %d" skew
        (Driver.counter tf "tfm.fast_guards" + Driver.counter tf "tfm.slow_guards")
        (Driver.counter fs "fastswap.major_faults");
      Tfm_util.Table.add_rowf t3 "%.2f | %.3f | %.3f" skew
        (gb (Driver.counter tf "net.bytes_in"))
        (gb (Driver.counter fs "net.bytes_in")))
    skews;
  report_table t;
  report_table t2;
  report_table t3;
  Tfm_util.Ascii_plot.print ~x_label:"zipf skew"
    ~title:"Figure 16a: memcached throughput (KOps/s)"
    [
      { Tfm_util.Ascii_plot.label = "TrackFM"; points = List.rev !tfm_pts };
      { label = "Fastswap"; points = List.rev !fs_pts };
      { label = "All local"; points = List.rev !local_pts };
    ];
  print_expectation
    ~paper:
      "TrackFM ~1.7x over Fastswap at low skew falling to ~1.3x; both \
       converge toward local as skew rises; Fastswap moves 66x the \
       working set vs TrackFM's 15x"
    ~ours:
      "same convergence with skew and an order-of-magnitude transfer gap"
