(* Far-memory cache: the paper's motivating datacenter scenario.

   A memcached-style key-value service holds a working set far larger
   than its local DRAM slice. We compare what an operator would see when
   the node runs with 1/2, 1/4 and 1/12 of the working set locally,
   under the three deployment options the paper studies:

   - kernel paging to the memory server (Fastswap),
   - the application recompiled with TrackFM (no source changes),
   - everything local (the overprovisioned baseline).

   Run with: dune exec examples/far_memory_cache.exe *)

open Workloads

let () =
  let p = Memcached.default_params ~keys:60_000 ~gets:40_000 ~skew:1.05 in
  let w = Memcached.workload p in
  let blobs = Lazy.force w.blobs and ws = w.working_set in
  Printf.printf
    "KV store: %d keys x %dB values, %d gets (Zipf %.2f), working set %s\n\n"
    p.Memcached.keys p.Memcached.value_size p.Memcached.gets p.Memcached.skew
    (Tfm_util.Units.bytes_to_string ws);
  let kops c = float_of_int p.Memcached.gets /. (float_of_int c /. 2.4e9) /. 1e3 in
  let lo = Driver.run_local ~blobs w.build in
  Printf.printf "all-local baseline: %.1f KOps/s\n\n" (kops lo.Driver.cycles);
  Printf.printf "%-12s %-14s %-14s %-16s %-16s\n" "local DRAM" "TrackFM KOps/s"
    "Fastswap KOps/s" "TrackFM GB moved" "Fastswap GB moved";
  List.iter
    (fun frac ->
      let budget = ws / frac in
      let tfm, _ =
        Driver.run_trackfm ~blobs w.build
          {
            (Driver.tfm_defaults ~local_budget:budget) with
            Driver.object_size = 64;
          }
      in
      let fs = Driver.run_fastswap ~blobs ~local_budget:budget w.build in
      assert (tfm.Driver.ret = fs.Driver.ret && tfm.Driver.ret = lo.Driver.ret);
      Printf.printf "1/%-10d %-14.1f %-14.1f %-16.3f %-16.3f\n" frac
        (kops tfm.Driver.cycles) (kops fs.Driver.cycles)
        (float_of_int (Driver.counter tfm "net.bytes_in") /. 1e9)
        (float_of_int (Driver.counter fs "net.bytes_in") /. 1e9))
    [ 2; 4; 12 ];
  Printf.printf
    "\nTrackFM's 64B objects move only the key/value bytes actually used;\n\
     the kernel moves whole 4KiB pages - the I/O amplification of \n\
     Section 4.4 - and its throughput falls behind as DRAM shrinks.\n"
