(* Figures 6-8: the loop chunking studies. *)

open Bench_common

(* Figure 6: cost-model crossover. A fixed-size array is scanned touching
   one 8-byte field per element; element size sweeps the object density.
   Everything is local so guard costs are isolated. The scan reads memory
   nothing wrote, so it returns 0. *)
let fig6 () =
  let array_bytes = scaled (Tfm_util.Units.mib 2) in
  let scan elem_size =
    let n = array_bytes / elem_size in
    let build () =
      let m = Ir.create_module () in
      let b = Builder.create m ~name:"main" ~nparams:0 in
      let p = Builder.call b "malloc" [ Ir.Const array_bytes ] in
      ignore (Builder.call b "!bench_begin" []);
      let accs =
        Builder.for_loop_acc b ~init:(Ir.Const 0) ~bound:(Ir.Const n)
          ~accs:[ Ir.Const 0 ]
          (fun b ~iv ~accs ->
            let acc = match accs with [ a ] -> a | _ -> assert false in
            let ptr = Builder.gep b p ~index:iv ~scale:elem_size () in
            let v = Builder.load b ptr in
            [ Builder.add b acc v ])
      in
      Builder.ret b (Some (List.hd accs));
      Verifier.check_module m;
      m
    in
    {
      Workload.name = Printf.sprintf "scan-%d" elem_size;
      build;
      blobs = lazy [];
      working_set = array_bytes;
      oracle = lazy 0;
      op_classes = [];
    }
  in
  let t =
    Tfm_util.Table.create
      ~title:"Figure 6: speedup of loop chunking vs naive guards (all-local)"
      ~columns:[ "elems/object (d)"; "naive cycles"; "chunked cycles"; "speedup" ]
  in
  let crossings = ref [] in
  List.iter
    (fun elem_size ->
      let d = 4096 / elem_size in
      let w = scan elem_size in
      let budget = w.working_set * 2 in
      let cycles chunk_mode =
        let o, _ = tfm { (tfm_opts ~budget) with Driver.chunk_mode } w in
        assert (o.Driver.ret = Lazy.force w.oracle);
        o.Driver.cycles
      in
      let naive = cycles `Off and chunked = cycles `All in
      let s = speedup naive chunked in
      crossings := (d, s) :: !crossings;
      Tfm_util.Table.add_rowf t "%d | %d | %d | %.3f" d naive chunked s)
    [ 4096; 2048; 1024; 512; 256; 128; 64; 32; 16; 8; 4 ];
  report_table t;
  let c = Cost_model.default in
  let predicted =
    (* Eq. 3: (d-1) fast guards + one slow guard vs (d-1) boundary checks
       + one locality guard per object. *)
    1.0
    +. (float_of_int (c.locality_guard - c.slow_guard_read_local)
       /. float_of_int (c.fast_guard_read - c.boundary_check))
  in
  let measured =
    (* linear interpolation between the bracketing densities *)
    let sorted = List.sort compare !crossings in
    let rec find = function
      | (d1, s1) :: ((d2, s2) :: _ as rest) ->
          if s1 <= 1.0 && s2 > 1.0 then
            float_of_int d1
            +. ((1.0 -. s1) /. (s2 -. s1) *. float_of_int (d2 - d1))
          else find rest
      | _ -> nan
    in
    find sorted
  in
  Printf.printf "model-predicted crossover: d* = %.0f elements/object\n"
    predicted;
  Printf.printf "measured crossover (interpolated): d = %.1f\n" measured;
  print_expectation
    ~paper:
      "crossover at ~730 elements/object with their (much costlier) \
       locality-invariant guard; model prediction matches measurement"
    ~ours:
      "same shape and model-vs-measurement agreement; crossover lands at \
       ~18 because our locality guard is proportionally cheaper (see \
       EXPERIMENTS.md)"

(* Figure 7: loop chunking speedup on STREAM Sum/Copy across local memory. *)
let fig7 () =
  List.iter
    (fun kernel ->
      let w = Stream.workload ~n:(scaled 400_000) kernel in
      let t =
        Tfm_util.Table.create
          ~title:
            (Printf.sprintf "Figure 7 (%s): chunking speedup vs naive guards"
               (Stream.kernel_name kernel))
          ~columns:[ "local mem %"; "naive cycles"; "chunked cycles"; "speedup" ]
      in
      List.iter
        (fun pct ->
          let budget = budget_of w.working_set pct in
          let cycles chunk_mode =
            (fst (tfm { (tfm_opts ~budget) with Driver.chunk_mode } w))
              .Driver.cycles
          in
          let naive = cycles `Off and chunked = cycles `All in
          Tfm_util.Table.add_rowf t "%d | %d | %d | %.2f" pct naive chunked
            (speedup naive chunked))
        pct_sweep;
      report_table t)
    [ Stream.Sum; Stream.Copy ];
  print_expectation
    ~paper:"1.5-2.0x, rising toward the right (guard costs dominate there)"
    ~ours:"same band and inclination (prefetch is tied to chunking, so the \
           left side gains too)"

(* Figure 8: selective (profiled cost-model) chunking on k-means. *)
let fig8 () =
  let w = Kmeans.workload (Kmeans.default_params ~n:(scaled 20_000)) in
  let ws = w.working_set in
  let t =
    Tfm_util.Table.create
      ~title:"Figure 8: k-means, speedup vs no chunking"
      ~columns:[ "local mem %"; "all loops"; "high-density (gated) only" ]
  in
  let profile = profile w in
  List.iter
    (fun pct ->
      let budget = budget_of ws pct in
      let cycles chunk_mode =
        (fst (tfm ~profile { (tfm_opts ~budget) with Driver.chunk_mode } w))
          .Driver.cycles
      in
      let base = cycles `Off and all = cycles `All and gated = cycles `Gated in
      Tfm_util.Table.add_rowf t "%d | %.2f | %.2f" pct (speedup base all)
        (speedup base gated))
    short_sweep;
  report_table t;
  (* also report the candidate filtering like the paper's 103 -> 27 *)
  let _, report = tfm ~profile (tfm_opts ~budget:ws) w in
  let cands = report.Trackfm.Pipeline.chunks.Trackfm.Chunk_pass.candidates in
  let selected =
    List.length (List.filter (fun c -> c.Trackfm.Chunk_pass.selected) cands)
  in
  Printf.printf "chunking candidates: %d pointers detected, %d selected by \
                 the profiled cost model (paper: 103 detected, 27 optimized)\n"
    (List.length cands) selected;
  print_expectation
    ~paper:"indiscriminate chunking ~4x slowdown; gated chunking 2.5x speedup"
    ~ours:"gated always >= all-loops; all-loops dips below 1.0 when guards \
           dominate (high local memory)"
