(* Latency attribution: per-operation-class critical-path breakdown for
   the request-structured workloads under both far-memory systems, via
   the causal span tracker. The table shows where each request class
   spends its wall-clock cycles; with --attribution-dir the full
   attribution JSON (same document as `run --attribution`) is written
   per (workload, system) run so successive harness invocations produce
   comparable latency-breakdown trajectories. *)

open Bench_common

let attribution () =
  let workloads =
    [
      Hashmap.workload
        (Hashmap.default_params ~keys:(scaled 80_000)
           ~lookups:(scaled 100_000));
      Kmeans.workload (Kmeans.default_params ~n:(scaled 120_000));
      Memcached.workload
        (Memcached.default_params ~keys:(scaled 100_000)
           ~gets:(scaled 60_000) ~skew:1.1);
    ]
  in
  let t =
    Tfm_util.Table.create
      ~title:
        "latency attribution at 25% local memory (share of per-class wall \
         cycles)"
      ~columns:
        ("workload" :: "system" :: "class" :: "ops" :: "p50" :: "p99"
        :: Telemetry.Span.cat_names)
  in
  List.iter
    (fun (w : Workload.t) ->
      let budget = budget_of w.working_set 25 in
      let systems =
        [
          ( "trackfm",
            fun telemetry -> ignore (tfm ~telemetry (tfm_opts ~budget) w) );
          ("fastswap", fun telemetry -> ignore (fastswap ~telemetry ~budget w));
        ]
      in
      List.iter
        (fun (sysname, run) ->
          let sink, telemetry =
            Telemetry.Sink.capture ~trace:false ~series_interval:250_000
              ~spans:true ~op_classes:w.op_classes ()
          in
          run telemetry;
          let sink = !sink in
          Telemetry.Sink.final_sample sink;
          (match Telemetry.Sink.spans sink with
          | None -> ()
          | Some sp ->
              (* The decomposition must sum to wall clock exactly; a
                 violation here is a tracker bug, not a workload property. *)
              assert (Telemetry.Span.violations sp = 0);
              List.iter
                (fun (cls, st) ->
                  let wall =
                    Telemetry.Histogram.total st.Telemetry.Span.wall_hist
                  in
                  let q p =
                    match
                      Telemetry.Histogram.percentile_opt
                        st.Telemetry.Span.wall_hist p
                    with
                    | Some v -> string_of_int v
                    | None -> "-"
                  in
                  let shares =
                    List.map
                      (fun c ->
                        let v =
                          st.Telemetry.Span.cat_totals.(Telemetry.Span
                                                        .cat_index c)
                        in
                        Printf.sprintf "%.1f%%"
                          (if wall = 0 then 0.0
                           else 100.0 *. float_of_int v /. float_of_int wall))
                      Telemetry.Span.categories
                  in
                  Tfm_util.Table.add_rowf t "%s | %s | %s | %d | %s | %s | %s"
                    w.name sysname
                    (Telemetry.Span.class_name sp cls)
                    st.Telemetry.Span.ops (q 50.0) (q 99.0)
                    (String.concat " | " shares))
                (Telemetry.Span.classes sp));
          let meta =
            let open Telemetry.Json in
            [
              ("workload", String w.name);
              ("system", String sysname);
              ("faults", String (Faults.to_string !setup.fabric.faults));
              ("fault_seed", Int !setup.fabric.fault_seed);
            ]
          in
          write_attribution ~experiment:"attribution"
            ~label:(w.name ^ "-" ^ sysname) sink ~meta)
        systems)
    workloads;
  report_table t;
  print_expectation
    ~paper:"(observability extension; no paper figure)"
    ~ours:
      "guard slow path dominates TrackFM request latency at 25% local; \
       Fastswap shifts the share toward page-granular fetch stalls"
