(* Robustness: goodput under fabric faults.

   The paper evaluates TrackFM on a perfectly cooperative fabric. This
   experiment makes the fabric adversarial with the PR-2 fault injector
   and measures *goodput* — useful work per cycle relative to the
   fault-free run of the same system — for TrackFM and Fastswap at 25%
   local memory under the canned fault presets. Both systems ride the
   same retry/backoff/circuit-breaker transport, so the gap between them
   shows how much the page-granularity amplification of kernel paging
   compounds under faults (each retry moves a full 4 KiB page). *)

open Bench_common

let presets = [ "none"; "light"; "medium"; "heavy" ]

let cfg_of name =
  match Faults.parse name with
  | Ok cfg -> cfg
  | Error e -> failwith ("exp_faults: bad preset " ^ name ^ ": " ^ e)

(* One run per (system, preset); goodput = fault-free cycles / faulted
   cycles, so "none" is 1.00 by construction and lower is worse. *)
let goodput_rows ~build ~blobs ~budget ~expected =
  let run_sys system cfg =
    let fabric = { !setup.fabric with faults = cfg } in
    let o =
      match system with
      | `Trackfm -> fst (tfm ~fabric ?blobs (tfm_opts ~budget) build)
      | `Fastswap -> fastswap ~fabric ?blobs ~budget build
    in
    assert (o.Driver.ret = expected);
    o
  in
  let base_tfm = run_sys `Trackfm Faults.off in
  let base_fs = run_sys `Fastswap Faults.off in
  List.map
    (fun preset ->
      let cfg = cfg_of preset in
      let tfm_o = run_sys `Trackfm cfg in
      let fs_o = run_sys `Fastswap cfg in
      ( preset,
        speedup base_tfm.Driver.cycles tfm_o.Driver.cycles,
        Driver.counter tfm_o "net.retries",
        speedup base_fs.Driver.cycles fs_o.Driver.cycles,
        Driver.counter fs_o "net.retries" ))
    presets

let faults_goodput () =
  let cases =
    [
      ( "stream-sum",
        (fun () ->
          let n = scaled 200_000 in
          let kernel = Stream.Sum in
          ( (fun () -> Stream.build ~n ~kernel ()),
            None,
            Stream.working_set_bytes ~n ~kernel (),
            Stream.checksum ~n ~kernel () )) );
      ( "hashmap",
        (fun () ->
          let p =
            Hashmap.default_params ~keys:(scaled 80_000)
              ~lookups:(scaled 100_000)
          in
          ( (fun () -> Hashmap.build p ()),
            Some [ (0, Hashmap.trace_blob p) ],
            Hashmap.working_set_bytes p,
            Hashmap.checksum p )) );
    ]
  in
  List.iter
    (fun (name, mk) ->
      let build, blobs, ws, expected = mk () in
      let budget = budget_of ws 25 in
      let t =
        Tfm_util.Table.create
          ~title:
            (Printf.sprintf
               "%s at 25%% local memory: goodput vs fault-free (seed %d)" name
               !setup.fabric.fault_seed)
          ~columns:
            [
              "faults"; "TrackFM goodput"; "tfm retries"; "Fastswap goodput";
              "fs retries";
            ]
      in
      List.iter
        (fun (preset, g_tfm, r_tfm, g_fs, r_fs) ->
          Tfm_util.Table.add_rowf t "%s | %.2f | %d | %.2f | %d" preset g_tfm
            r_tfm g_fs r_fs)
        (goodput_rows ~build ~blobs ~budget ~expected);
      report_table t)
    cases;
  print_expectation
    ~paper:"(no fault-injection study; cooperative fabric assumed)"
    ~ours:
      "goodput degrades gracefully with fault severity; both systems stay \
       correct, and checksums are unchanged under every preset"
