(* Figures 9-12: AIFM parameter studies (object size, prefetching) and the
   STREAM comparison against Fastswap. *)

open Bench_common

let object_sizes = [ 4096; 2048; 1024; 512; 256 ]

(* Figure 9: object size on the Zipfian hashmap (throughput). *)
let fig9 () =
  let p = Hashmap.default_params ~keys:(scaled 100_000) ~lookups:(scaled 150_000) in
  let blobs = [ (0, Hashmap.trace_blob p) ] in
  let ws = Hashmap.working_set_bytes p in
  let build () = Hashmap.build p () in
  let t =
    Tfm_util.Table.create
      ~title:"Figure 9a: hashmap throughput (MOps/s) by object size"
      ~columns:
        ("local mem %" :: List.map (fun o -> Printf.sprintf "%dB" o) object_sizes)
  in
  List.iter
    (fun pct ->
      let budget = budget_of ws pct in
      let row =
        List.map
          (fun osz ->
            let o, _ =
              tfm ~blobs { (tfm_opts ~budget) with Driver.object_size = osz }
                build
            in
            Printf.sprintf "%.2f" (mops p.Hashmap.lookups o.Driver.cycles))
          object_sizes
      in
      Tfm_util.Table.add_row t (string_of_int pct :: row))
    short_sweep;
  report_table t;
  (* 9b: the fixed 25% bar chart *)
  let t2 =
    Tfm_util.Table.create ~title:"Figure 9b: hashmap at 25% local memory"
      ~columns:[ "object size"; "MOps/s" ]
  in
  List.iter
    (fun osz ->
      let o, _ =
        tfm ~blobs
          { (tfm_opts ~budget:(budget_of ws 25)) with Driver.object_size = osz }
          build
      in
      Tfm_util.Table.add_rowf t2 "%dB | %.2f" osz
        (mops p.Hashmap.lookups o.Driver.cycles))
    object_sizes;
  report_table t2;
  print_expectation
    ~paper:"fine-grained, low-spatial-locality access: smaller objects win"
    ~ours:"throughput increases monotonically toward 256B"

(* Figure 10: object size on STREAM copy (bandwidth). *)
let fig10 () =
  let n = scaled 400_000 in
  let kernel = Stream.Copy in
  let ws = Stream.working_set_bytes ~n ~kernel () in
  let build () = Stream.build ~n ~kernel () in
  let bytes_processed = 2 * n * 4 in
  let t =
    Tfm_util.Table.create
      ~title:"Figure 10a: STREAM copy bandwidth (MB/s) by object size"
      ~columns:
        ("local mem %" :: List.map (fun o -> Printf.sprintf "%dB" o) object_sizes)
  in
  List.iter
    (fun pct ->
      let budget = budget_of ws pct in
      let row =
        List.map
          (fun osz ->
            let o, _ =
              tfm { (tfm_opts ~budget) with Driver.object_size = osz } build
            in
            Printf.sprintf "%.0f"
              (float_of_int bytes_processed
              /. cycles_to_seconds o.Driver.cycles /. 1e6))
          object_sizes
      in
      Tfm_util.Table.add_row t (string_of_int pct :: row))
    short_sweep;
  report_table t;
  let t2 =
    Tfm_util.Table.create ~title:"Figure 10b: STREAM copy at 25% local memory"
      ~columns:[ "object size"; "MB/s" ]
  in
  List.iter
    (fun osz ->
      let o, _ =
        tfm
          { (tfm_opts ~budget:(budget_of ws 25)) with Driver.object_size = osz }
          build
      in
      Tfm_util.Table.add_rowf t2 "%dB | %.0f" osz
        (float_of_int bytes_processed /. cycles_to_seconds o.Driver.cycles /. 1e6))
    object_sizes;
  report_table t2;
  print_expectation
    ~paper:"high spatial locality: larger (4KB) objects win"
    ~ours:"bandwidth increases monotonically toward 4KB"

(* Figure 11: prefetching coupled with chunking vs chunking alone. *)
let fig11 () =
  let n = scaled 400_000 in
  List.iter
    (fun kernel ->
      let ws = Stream.working_set_bytes ~n ~kernel () in
      let build () = Stream.build ~n ~kernel () in
      let t =
        Tfm_util.Table.create
          ~title:
            (Printf.sprintf "Figure 11 (%s): prefetch+chunking vs chunking"
               (Stream.kernel_name kernel))
          ~columns:[ "local mem %"; "no prefetch"; "prefetch"; "speedup" ]
      in
      List.iter
        (fun pct ->
          let budget = budget_of ws pct in
          let cycles prefetch =
            (fst (tfm { (tfm_opts ~budget) with Driver.prefetch } build))
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
  let n = scaled 400_000 in
  let plots =
    List.map
      (fun kernel ->
        let ws = Stream.working_set_bytes ~n ~kernel () in
        let build () = Stream.build ~n ~kernel () in
        let t =
          Tfm_util.Table.create
            ~title:
              (Printf.sprintf "Figure 12 (%s): TrackFM speedup vs Fastswap"
                 (Stream.kernel_name kernel))
            ~columns:
              [ "local mem %"; "TrackFM cycles"; "Fastswap cycles"; "speedup" ]
        in
        let pts =
          List.map
            (fun pct ->
              let budget = budget_of ws pct in
              let tf = (fst (tfm (tfm_opts ~budget) build)).Driver.cycles in
              let fs = (fastswap ~budget build).Driver.cycles in
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
