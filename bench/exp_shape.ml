(* Shape-aware routing: what the interprocedural shape analysis buys
   the hybrid data plane. The llist workload hides every dependent load
   of a list and a tree traversal inside one-load helpers (node_next,
   tree_left, ...), so intraprocedural classification sees no chain at
   all: without shape facts the static router routes nothing and the
   hybrid degenerates to pure guards, paying per-hop software overhead
   even when the working set is resident. With shape facts the helper
   sites classify pointer-chase (chain depth propagated through the
   calls) and route to the page path.

   Machine-checked gates:
   - at least one helper site is upgraded: with shapes the static route
     pass moves sites to the page path, without shapes it moves none
     (the without-shapes hybrid must be cycle-identical to pure guards);
   - the upgrade pays: hybrid-with-shapes beats hybrid-without-shapes
     at full local memory (the guard-bound regime);
   - checksums bit-identical across interp/compiled engines and equal
     to the host-side oracle. *)

open Bench_common

let shape_routing () =
  let nodes = scaled 40_000 and tnodes = scaled 16_000 in
  let build () = Workloads.Llist.build ~nodes ~tnodes () in
  let ws = Workloads.Llist.working_set_bytes ~nodes ~tnodes in
  let failures = ref [] in
  let gate name ok =
    if not ok then failures := name :: !failures;
    if ok then "yes" else "NO"
  in

  (* -- routed-site counts: the upgrade itself ------------------------- *)
  let static ~use_shapes budget =
    tfm { (tfm_opts ~budget) with Driver.route = `Static; use_shapes } build
  in
  let budget100 = budget_of ws 100 in
  let _, rep_with = static ~use_shapes:true budget100 in
  let _, rep_without = static ~use_shapes:false budget100 in
  let routed r = r.Trackfm.Pipeline.routing.Trackfm.Route_pass.routed in
  Printf.printf
    "static routes: %d with shape analysis, %d without (helper-hidden \
     sites are invisible intraprocedurally)\n\n"
    (routed rep_with) (routed rep_without);
  let upgraded =
    gate "shape facts route helper-hidden sites" (routed rep_with >= 1)
  in
  let blind =
    gate "without shapes nothing routes" (routed rep_without = 0)
  in

  (* -- cycles: shape-aware hybrid vs shape-blind vs pure planes ------- *)
  let t =
    Tfm_util.Table.create
      ~title:
        "Shape-aware routing: helper-hidden list+tree traversal (cycles, \
         lower is better)"
      ~columns:
        [ "local mem %"; "pure TrackFM"; "pure Fastswap"; "hybrid w/o shapes";
          "hybrid w/ shapes"; "shapes help" ]
  in
  let rows =
    List.map
      (fun pct ->
        let budget = budget_of ws pct in
        let cycles (o, _) = o.Driver.cycles in
        let tf = cycles (tfm (tfm_opts ~budget) build) in
        let fs = (fastswap ~budget build).Driver.cycles in
        let hy0 = cycles (static ~use_shapes:false budget) in
        let hy = cycles (static ~use_shapes:true budget) in
        (pct, tf, fs, hy0, hy))
      short_sweep
  in
  List.iter
    (fun (pct, tf, fs, hy0, hy) ->
      Tfm_util.Table.add_rowf t "%d | %d | %d | %d | %d | %s" pct tf fs hy0 hy
        (if hy < hy0 then "yes" else "no"))
    rows;
  report_table t;
  (* The win lives at full residency, where the routed traversal is
     plain memory while the shape-blind hybrid still pays a guard per
     hop. Under heavy eviction both configurations are fetch-bound and
     the sweep shows that honestly. *)
  let _, tf100, _, hy0_100, hy100 =
    List.find (fun (pct, _, _, _, _) -> pct = 100) rows
  in
  let pays =
    gate "with-shapes < without-shapes @100%" (hy100 < hy0_100)
  in
  let blind_is_guards =
    gate "without-shapes hybrid == pure guards @100%" (hy0_100 = tf100)
  in

  (* -- integrity: engines agree and match the host-side oracle -------- *)
  let rets =
    List.map
      (fun engine ->
        let o, _ =
          tfm ~engine ~fabric:Run_spec.default_fabric
            { (tfm_opts ~budget:(budget_of ws 50)) with Driver.route = `Static }
            build
        in
        o.Driver.ret)
      [ Engine.Interp; Engine.Compiled ]
  in
  let oracle = Workloads.Llist.checksum ~nodes ~tnodes in
  let sums_ok = List.for_all (( = ) oracle) rets in
  let checks = gate "checksums identical across engines + oracle" sums_ok in

  Printf.printf
    "gates: upgraded=%s blind=%s pays=%s blind-is-guards=%s checksums=%s\n"
    upgraded blind pays blind_is_guards checks;
  print_expectation
    ~paper:
      "TrackFM Section 7 (futures): interprocedural analysis should let \
       the compiler see access patterns that cross function boundaries"
    ~ours:
      "bottom-up shape summaries + calling contexts classify helper-hidden \
       traversals as pointer chases; static routing then beats the \
       shape-blind hybrid on the resident traversal";
  let verdict = if !failures = [] then "PASS" else "FAIL" in
  Printf.printf "shape_routing %s%s\n" verdict
    (if !failures = [] then ""
     else ": " ^ String.concat "; " (List.rev !failures));
  if verdict = "FAIL" then exit 1
