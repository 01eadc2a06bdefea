(* Figure 17 and Table 3: the NAS suite, plus the design-choice ablations. *)

open Bench_common

(* NAS at class 1, the size Figure 17 and Table 3 report. *)
let nas kernel = Nas.workload (Nas.default_params kernel)

(* [w] with the O1 pre-pass run on every module it builds. *)
let o1 (w : Workload.t) = { w with build = Tfm_opt.O1.build w.build }

let fig17 () =
  let t =
    Tfm_util.Table.create
      ~title:"Figure 17a: NAS at 25% local memory (slowdown vs local-only)"
      ~columns:[ "kernel"; "Fastswap"; "TrackFM" ]
  in
  (* Each kernel's local cycles and 25% budget, and the slowdowns of
     Fastswap and TrackFM there. *)
  let rows =
    List.map
      (fun kernel ->
        let w = nas kernel in
        let base = (local w).Driver.cycles in
        let budget = budget_of w.working_set 25 in
        let slowdown (o : Driver.outcome) =
          float_of_int o.Driver.cycles /. float_of_int base
        in
        ( kernel,
          base,
          budget,
          slowdown (fastswap ~budget w),
          slowdown (fst (tfm (tfm_opts ~budget) w)) ))
      Nas.all_kernels
  in
  let name kernel = String.uppercase_ascii (Nas.kernel_name kernel) in
  List.iter
    (fun (kernel, _, _, fs, tf) ->
      Tfm_util.Table.add_rowf t "%s | %.2f | %.2f" (name kernel) fs tf)
    rows;
  let geomean f =
    Tfm_util.Stats.geomean (Array.of_list (List.rev_map f rows))
  in
  Tfm_util.Table.add_rowf t "GeoM. | %.2f | %.2f"
    (geomean (fun (_, _, _, fs, _) -> fs))
    (geomean (fun (_, _, _, _, tf) -> tf));
  report_table t;
  (* 17b: FT and SP with the O1 pre-pass, next to their 17a runs. *)
  let t2 =
    Tfm_util.Table.create
      ~title:"Figure 17b: FT and SP with O1 pre-optimization"
      ~columns:[ "kernel"; "Fastswap"; "TrackFM"; "TrackFM/O1" ]
  in
  List.iter
    (fun (kernel, base, budget, fs, tf) ->
      if kernel = Nas.FT || kernel = Nas.SP then begin
        let opt = fst (tfm (tfm_opts ~budget) (o1 (nas kernel))) in
        Tfm_util.Table.add_rowf t2 "%s | %.2f | %.2f | %.2f" (name kernel) fs
          tf
          (float_of_int opt.Driver.cycles /. float_of_int base)
      end)
    rows;
  report_table t2;
  (* guard-count reduction from O1, the paper's 6x/4x observation *)
  List.iter
    (fun kernel ->
      let guards (w : Workload.t) =
        let m = w.build () in
        let r = Trackfm.Pipeline.run Trackfm.Pipeline.default_config m in
        r.Trackfm.Pipeline.guards.Trackfm.Guard_pass.guarded_loads
        + r.Trackfm.Pipeline.guards.Trackfm.Guard_pass.guarded_stores
        + Hashtbl.length r.Trackfm.Pipeline.chunks.Trackfm.Chunk_pass.covered
      in
      let plain = guards (nas kernel) and opt = guards (o1 (nas kernel)) in
      Printf.printf
        "%s: protected accesses %d -> %d with O1 (%.1fx static reduction)\n"
        (name kernel) plain opt
        (float_of_int plain /. float_of_int opt))
    [ Nas.FT; Nas.SP ];
  print_expectation
    ~paper:
      "TrackFM beats Fastswap on most kernels; FT is the outlier \
       (temporal reuse amortizes faults, naive code drowns in guards); \
       O1 cuts FT mem instructions ~6x and SP ~4x, recovering TrackFM"
    ~ours:"same ranking, FT outlier and O1 recovery (IS magnitudes are \
           exaggerated by the scaled-down bucket geometry; see \
           EXPERIMENTS.md)"

let table3 () =
  let t =
    Tfm_util.Table.create ~title:"Table 3: NAS benchmarks"
      ~columns:
        [ "kernel"; "paper class mem (GB)"; "paper LoC"; "our working set" ]
  in
  List.iter
    (fun kernel ->
      Tfm_util.Table.add_rowf t "%s | %d | %d | %s"
        (String.uppercase_ascii (Nas.kernel_name kernel))
        (Nas.paper_memory_gb kernel) (Nas.paper_loc kernel)
        (Tfm_util.Units.bytes_to_string (nas kernel).working_set))
    Nas.all_kernels;
  report_table t

(* Ablation: the object state table (Section 3.2). Disabling it forces the
   extra dependent metadata reference on every guard. *)
let ablate_state_table () =
  let w = Stream.workload ~n:(scaled 400_000) Stream.Sum in
  let t =
    Tfm_util.Table.create
      ~title:"Ablation: object state table (naive guards, STREAM sum)"
      ~columns:[ "local mem %"; "with table"; "without table"; "overhead" ]
  in
  List.iter
    (fun pct ->
      let budget = budget_of w.working_set pct in
      let cycles use_state_table =
        (fst
           (tfm
              {
                (tfm_opts ~budget) with
                Driver.chunk_mode = `Off;
                use_state_table;
              }
              w))
          .Driver.cycles
      in
      let with_t = cycles true and without = cycles false in
      Tfm_util.Table.add_rowf t "%d | %d | %d | %.1f%%" pct with_t without
        (100.0 *. (float_of_int without /. float_of_int with_t -. 1.0)))
    short_sweep;
  report_table t;
  print_expectation
    ~paper:
      "the state table replaces AIFM's two dependent metadata references \
       with one indexed lookup (Section 3.2)"
    ~ours:"removing it costs a measurable constant per guard"

(* Concurrency study (Shenango substrate): AIFM's TCP backend needs
   concurrent tasks to hide fetch latency (Section 4.1 notes Fastswap's
   RDMA wins over TCP "when there is not sufficient concurrency"). *)
let concurrency () =
  let cost = Cost_model.default in
  let requests = 2048 in
  let service = 2_000 (* CPU cycles per request *) in
  let miss_rate_pct = 30 in
  let t =
    Tfm_util.Table.create
      ~title:
        "Concurrency: KV service over the TCP far-memory backend \
         (Shenango tasking)"
      ~columns:[ "tasks"; "completion (Mcyc)"; "KOps/s"; "speedup vs 1 task" ]
  in
  let run ntasks =
    let s = Shenango.Sched.create () in
    let per_task = requests / ntasks in
    for task = 0 to ntasks - 1 do
      Shenango.Sched.spawn s (fun () ->
          for r = 1 to per_task do
            Shenango.Sched.work service;
            (* deterministic miss pattern at the configured rate *)
            if (task + (r * 7)) mod 100 < miss_rate_pct then
              Shenango.Sched.block
                (Cost_model.transfer_cycles cost ~latency:cost.tcp_latency
                   ~bytes:256)
          done)
    done;
    Shenango.Sched.run s
  in
  let base = run 1 in
  List.iter
    (fun ntasks ->
      let c = run ntasks in
      Tfm_util.Table.add_rowf t "%d | %.2f | %.0f | %.2f" ntasks
        (float_of_int c /. 1e6)
        (kops requests c) (speedup base c))
    [ 1; 2; 4; 8; 16; 32; 64 ];
  report_table t;
  print_expectation
    ~paper:
      "AIFM hides TCP fetch latency with Shenango's concurrency; without \
       it the RDMA kernel path wins (Section 4.1)"
    ~ours:
      "throughput scales with tasks until CPU-bound; single-task runs \
       expose the full fetch latency"

(* Ablation: the multi-object-size extension (the paper's Section 3.2
   future work). One size class forces a single compile-time granularity
   for the whole heap; two classes route small allocations (memcached
   values) to 64 B objects and large regions (hash table, trace) to 4 KiB
   ones. *)
let ablate_multisize () =
  let p =
    Memcached.default_params ~keys:(scaled 150_000) ~gets:(scaled 80_000)
      ~skew:1.05
  in
  let w = Memcached.workload p in
  let t =
    Tfm_util.Table.create
      ~title:"Ablation: multi-object-size heap on memcached (Zipf 1.05)"
      ~columns:[ "configuration"; "KOps/s"; "GB in"; "fetches" ]
  in
  let budget = budget_of w.working_set 8 in
  let report label o =
    Tfm_util.Table.add_rowf t "%s | %.1f | %.4f | %d" label
      (kops p.Memcached.gets o.Driver.cycles)
      (gb (Driver.counter o "net.bytes_in"))
      (Driver.counter o "net.fetches")
  in
  let profile = profile w in
  let run opts = fst (tfm ~profile opts w) in
  let opts = tfm_opts ~budget in
  report "single class, 4KiB" (run opts);
  report "single class, 64B" (run { opts with Driver.object_size = 64 });
  report "two classes (64B small / 4KiB large)"
    (run
       {
         opts with
         Driver.size_classes = [ (2048, 64, 0.7); (max_int, 4096, 0.3) ];
       });
  report_table t;
  print_expectation
    ~paper:
      "future work: multiple object sizes would avoid choosing one \
       granularity per application (Section 3.2); Section 5 points to \
       MaPHeA-style profile-guided placement"
    ~ours:
      "two classes beat a single 4KiB heap, but allocation-size routing \
       sends the hash table (one huge allocation, fine-grained access) to \
       the large class, so 64B-everywhere still wins here - evidence that \
       the paper is right to call for profile-guided placement rather \
       than size heuristics"

(* Ablation: the evacuator's hotness tracking (CLOCK second chance) vs a
   FIFO that ignores recency, on the hot-set-friendly memcached
   workload. *)
let ablate_eviction () =
  let p =
    Memcached.default_params ~keys:(scaled 150_000) ~gets:(scaled 80_000)
      ~skew:1.2
  in
  let w = Memcached.workload p in
  let budget = budget_of w.working_set 8 in
  let t =
    Tfm_util.Table.create
      ~title:"Ablation: evacuator hotness (CLOCK) vs FIFO, memcached Zipf 1.2"
      ~columns:[ "policy"; "KOps/s"; "demand fetches" ]
  in
  let profile = profile w in
  List.iter
    (fun (label, policy) ->
      let o, _ =
        tfm ~profile
          { (tfm_opts ~budget) with Driver.object_size = 64; policy }
          w
      in
      assert (o.Driver.ret = Lazy.force w.oracle);
      Tfm_util.Table.add_rowf t "%s | %.1f | %d" label
        (kops p.Memcached.gets o.Driver.cycles)
        (Driver.counter o "aifm.demand_fetches"))
    [ ("CLOCK (hotness)", Aifm.Pool.Clock_hand); ("FIFO", Aifm.Pool.Fifo) ];
  report_table t;
  print_expectation
    ~paper:
      "AIFM's evacuator tracks hotness so hot objects stay local \
       (Section 2: 'hot regions will be kept local')"
    ~ours:"ignoring recency costs throughput on a skewed key set"
