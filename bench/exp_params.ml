(* Figures 9-12: AIFM parameter studies (object size, prefetching) and the
   STREAM comparison against Fastswap. *)

open Bench_common

let object_sizes = [ 4096; 2048; 1024; 512; 256 ]

(* Figures 9 and 10 share one study: [metric] of a TrackFM run per local
   memory share and object size, printed to [decimals] places. Table a
   holds the sweep; bar chart b is its 25% row, printed from the same
   runs. *)
let object_size_study ~title_a ~title_b ~unit ~decimals (w : Workload.t)
    metric =
  let t =
    Tfm_util.Table.create ~title:title_a
      ~columns:
        ("local mem %" :: List.map (fun o -> Printf.sprintf "%dB" o) object_sizes)
  in
  let profile = profile w in
  let rows =
    List.map
      (fun pct ->
        let budget = budget_of w.working_set pct in
        let row =
          List.map
            (fun osz ->
              let o, _ =
                tfm ~profile
                  { (tfm_opts ~budget) with Driver.object_size = osz }
                  w
              in
              metric o)
            object_sizes
        in
        Tfm_util.Table.add_row t
          (string_of_int pct :: List.map (Printf.sprintf "%.*f" decimals) row);
        (pct, row))
      short_sweep
  in
  report_table t;
  let t2 =
    Tfm_util.Table.create ~title:title_b ~columns:[ "object size"; unit ]
  in
  List.iter2
    (fun osz v -> Tfm_util.Table.add_rowf t2 "%dB | %.*f" osz decimals v)
    object_sizes (List.assoc 25 rows);
  report_table t2

(* Figure 9: object size on the Zipfian hashmap (throughput). *)
let fig9 () =
  let p = Hashmap.default_params ~keys:(scaled 100_000) ~lookups:(scaled 150_000) in
  object_size_study
    ~title_a:"Figure 9a: hashmap throughput (MOps/s) by object size"
    ~title_b:"Figure 9b: hashmap at 25% local memory" ~unit:"MOps/s"
    ~decimals:2 (Hashmap.workload p)
    (fun o -> mops p.Hashmap.lookups o.Driver.cycles);
  print_expectation
    ~paper:"fine-grained, low-spatial-locality access: smaller objects win"
    ~ours:"throughput increases monotonically toward 256B"

(* Figure 10: object size on STREAM copy (bandwidth). *)
let fig10 () =
  let w = Stream.workload ~n:(scaled 400_000) Stream.Copy in
  (* the copy reads one array and writes the other: its working set *)
  let bytes_processed = w.working_set in
  object_size_study
    ~title_a:"Figure 10a: STREAM copy bandwidth (MB/s) by object size"
    ~title_b:"Figure 10b: STREAM copy at 25% local memory" ~unit:"MB/s"
    ~decimals:0 w
    (fun o ->
      float_of_int bytes_processed /. cycles_to_seconds o.Driver.cycles /. 1e6);
  print_expectation
    ~paper:"high spatial locality: larger (4KB) objects win"
    ~ours:"bandwidth increases monotonically toward 4KB"

(* Figure 11: prefetching coupled with chunking vs chunking alone. *)
let fig11 () =
  List.iter
    (fun kernel ->
      let w = Stream.workload ~n:(scaled 400_000) kernel in
      let t =
        Tfm_util.Table.create
          ~title:
            (Printf.sprintf "Figure 11 (%s): prefetch+chunking vs chunking"
               (Stream.kernel_name kernel))
          ~columns:[ "local mem %"; "no prefetch"; "prefetch"; "speedup" ]
      in
      let profile = profile w in
      List.iter
        (fun pct ->
          let budget = budget_of w.working_set pct in
          let cycles prefetch =
            (fst (tfm ~profile { (tfm_opts ~budget) with Driver.prefetch } w))
              .Driver.cycles
          in
          let off = cycles false and on = cycles true in
          Tfm_util.Table.add_rowf t "%d | %d | %d | %.2f" pct off on
            (speedup off on))
        pct_sweep;
      report_table t)
    [ Stream.Sum; Stream.Copy ];
  print_expectation
    ~paper:"up to ~5x at the left (remote-bound); impact fades to the right"
    ~ours:"same shape: large speedup when remote-bound, ~1x when local"

(* Figure 12: STREAM speedup over Fastswap with chunking+prefetching. *)
let fig12 () =
  let plots =
    List.map
      (fun kernel ->
        let w = Stream.workload ~n:(scaled 400_000) kernel in
        let t =
          Tfm_util.Table.create
            ~title:
              (Printf.sprintf "Figure 12 (%s): TrackFM speedup vs Fastswap"
                 (Stream.kernel_name kernel))
            ~columns:
              [ "local mem %"; "TrackFM cycles"; "Fastswap cycles"; "speedup" ]
        in
        let profile = profile w in
        let pts =
          List.map
            (fun pct ->
              let budget = budget_of w.working_set pct in
              let tf =
                (fst (tfm ~profile (tfm_opts ~budget) w)).Driver.cycles
              in
              let fs = (fastswap ~budget w).Driver.cycles in
              Tfm_util.Table.add_rowf t "%d | %d | %d | %.2f" pct tf fs
                (speedup fs tf);
              (float_of_int pct, speedup fs tf))
            pct_sweep
        in
        report_table t;
        { Tfm_util.Ascii_plot.label = Stream.kernel_name kernel; points = pts })
      [ Stream.Sum; Stream.Copy ]
  in
  Tfm_util.Ascii_plot.print ~x_label:"local mem %"
    ~title:"Figure 12: speedup vs Fastswap" plots;
  print_expectation
    ~paper:"~2.7x (Sum) and ~2.9x (Copy) over Fastswap"
    ~ours:"TrackFM wins across the sweep, larger margins when remote-bound"
