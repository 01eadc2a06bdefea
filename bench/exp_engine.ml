(* engine_speedup: instruction-dispatch throughput of the compiled
   closure engine against the tree-walking interpreter — the measurement
   behind the "compiled engine unlocks full-size sweeps" claim, tracked
   as a JSON table from this PR onward.

   Two kinds of cases run. The dispatch microkernels (alu-mix, branchy)
   are pure control/ALU loops with no heap traffic: on them almost the
   whole run is instruction dispatch, so they isolate the quantity the
   gate is about. The application workloads (stream-sum, kmeans,
   hashmap, analytics) give the end-to-end picture: there both engines
   share the identical memory-simulator work. Memstore accesses no
   longer hash a page index (a direct-mapped page cache answers every
   resident page) and counters are array slots, but every load and store
   still goes through Memstore's bounds and byte assembly, the allocator
   and the clock, so Amdahl's law keeps the visible ratio below the
   dispatch-only speedup.

   Both engines run the identical module on the identical local backend,
   so instruction counts agree exactly (asserted, along with the
   checksum, on every run); only wall-clock time differs. The engines
   alternate, interpreter then compiled, for three pairs per case, and
   the speedup is the median of the three pair ratios: a burst of host
   load lands on both halves of a pair, where timing each engine back to
   back let it land on one engine only. Throughput is reported in
   millions of simulated instructions per host second, from the median
   run of each engine. The final PASS line is the machine-checked CI
   gate: at least two cases must clear 5x. *)

open Bench_common

let target_speedup = 5.0
let min_passing = 2
let pairs_per_case = 3

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Pure integer mixing loop: one block, ~13 instructions per iteration,
   zero loads/stores. Dispatch is the entire cost. *)
let alu_mix ~n () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let acc =
    Builder.for_loop_acc b ~hint:"mix" ~init:(Ir.Const 0) ~bound:(Ir.Const n)
      ~accs:[ Ir.Const 0x9e3779b9 ]
      (fun b ~iv ~accs ->
        let a = List.hd accs in
        let t1 = Builder.mul b a (Ir.Const 0x5851f42d4c957f2d) in
        let t2 = Builder.add b t1 iv in
        let t3 = Builder.binop b Ir.Lshr t2 (Ir.Const 29) in
        let t4 = Builder.binop b Ir.Xor t2 t3 in
        let t5 = Builder.binop b Ir.And t4 (Ir.Const 0xffff_ffff_ffff) in
        let t6 = Builder.binop b Ir.Shl t5 (Ir.Const 3) in
        let t7 = Builder.binop b Ir.Or t6 (Ir.Const 1) in
        [ Builder.add b t5 t7 ])
  in
  Builder.ret b (Some (List.hd acc));
  m

(* Data-dependent branching loop: a Collatz-flavoured walk where every
   iteration takes one of two update blocks on the low bit of the state.
   Exercises terminator dispatch and multi-arm phis with no heap
   traffic. *)
let branchy ~n () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let entry = Builder.current_label b in
  let header = Builder.add_block b "header" in
  let odd = Builder.add_block b "odd" in
  let even = Builder.add_block b "even" in
  let latch = Builder.add_block b "latch" in
  let exit = Builder.add_block b "exit" in
  Builder.br b header;
  Builder.set_block b header;
  let i = Builder.phi b [ (entry, Ir.Const 0) ] in
  let a = Builder.phi b [ (entry, Ir.Const 123456789) ] in
  let bit = Builder.binop b Ir.And a (Ir.Const 1) in
  Builder.cbr b bit odd even;
  Builder.set_block b odd;
  let o1 = Builder.mul b a (Ir.Const 3) in
  let o2 = Builder.add b o1 (Ir.Const 1) in
  Builder.br b latch;
  Builder.set_block b even;
  let e1 = Builder.binop b Ir.Lshr a (Ir.Const 1) in
  let e2 = Builder.add b e1 i in
  Builder.br b latch;
  Builder.set_block b latch;
  let a' = Builder.phi b [ (odd, o2); (even, e2) ] in
  let i' = Builder.add b i (Ir.Const 1) in
  let c = Builder.icmp b Ir.Lt i' (Ir.Const n) in
  Builder.cbr b c header exit;
  Builder.patch_phi b i latch i';
  Builder.patch_phi b a latch a';
  Builder.set_block b exit;
  Builder.ret b (Some (Builder.binop b Ir.And a' (Ir.Const 0xfffffff)));
  m

let engine_speedup () =
  print_expectation
    ~paper:"n/a (simulator infrastructure; target: >=10x dispatch throughput)"
    ~ours:"compiled engine >=5x on at least two cases (CI gate)";
  let kernel name build = (name, build, lazy []) in
  let record (w : Workload.t) = (w.name, w.build, w.blobs) in
  let cases =
    [
      kernel "alu-mix" (alu_mix ~n:(scaled 2_000_000));
      kernel "branchy" (branchy ~n:(scaled 1_500_000));
      record (Stream.workload ~n:(scaled 400_000) Stream.Sum);
      record (Kmeans.workload (Kmeans.default_params ~n:(scaled 40_000)));
      record
        (Hashmap.workload
           (Hashmap.default_params ~keys:(scaled 60_000)
              ~lookups:(scaled 120_000)));
      record
        (Analytics.workload (Analytics.default_params ~rows:(scaled 60_000)));
    ]
  in
  let t =
    Tfm_util.Table.create ~title:"Engine dispatch throughput (local backend)"
      ~columns:[ "case"; "instrs"; "interp Mi/s"; "compiled Mi/s"; "speedup" ]
  in
  let passing = ref 0 in
  List.iter
    (fun (name, build, blobs) ->
      let blobs = Lazy.force blobs in
      let run engine = wall (fun () -> Driver.run_local ~engine ~blobs build) in
      (* Interpreter and compiled runs alternate, so each pair sees the
         same host load; the gate reads the median of the pair ratios. *)
      let pairs =
        List.init pairs_per_case (fun _ ->
            let oi, ti = run Engine.Interp in
            let oc, tc = run Engine.Compiled in
            if oi.Driver.ret <> oc.Driver.ret then
              failwith
                (Printf.sprintf
                   "engine_speedup %s: checksum diverged (%d vs %d)" name
                   oi.Driver.ret oc.Driver.ret);
            if oi.Driver.instrs <> oc.Driver.instrs then
              failwith
                (Printf.sprintf "engine_speedup %s: instr count diverged" name);
            (oi.Driver.instrs, ti, tc))
      in
      let instrs, _, _ = List.hd pairs in
      let median f =
        Tfm_util.Stats.median (Array.of_list (List.map f pairs))
      in
      let mips t = float_of_int instrs /. t /. 1e6 in
      let ti = median (fun (_, ti, _) -> ti)
      and tc = median (fun (_, _, tc) -> tc) in
      let sp = median (fun (_, ti, tc) -> ti /. tc) in
      if sp >= target_speedup then incr passing;
      Tfm_util.Table.add_rowf t "%s | %d | %.1f | %.1f | %.2f" name
        instrs (mips ti) (mips tc) sp)
    cases;
  report_table t;
  let verdict = if !passing >= min_passing then "PASS" else "FAIL" in
  Printf.printf "engine_speedup %s: %d of %d cases >= %.0fx\n" verdict !passing
    (List.length cases) target_speedup;
  if verdict = "FAIL" then exit 1
