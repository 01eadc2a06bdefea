(* The experiment harness: one entry per paper table/figure (DESIGN.md's
   per-experiment index). Run everything with `dune exec bench/main.exe`,
   or name experiments: `dune exec bench/main.exe -- fig7 fig12 --quick`. *)

let experiments =
  [
    ("table1", "Table 1: guard costs", Exp_tables.table1);
    ("table2", "Table 2: primitive overheads vs Fastswap", Exp_tables.table2);
    ("fig6", "Figure 6: cost-model crossover", Exp_micro.fig6);
    ("fig7", "Figure 7: chunking on STREAM", Exp_micro.fig7);
    ("fig8", "Figure 8: selective chunking on k-means", Exp_micro.fig8);
    ("fig9", "Figure 9: object size on hashmap", Exp_params.fig9);
    ("fig10", "Figure 10: object size on STREAM", Exp_params.fig10);
    ("fig11", "Figure 11: prefetching", Exp_params.fig11);
    ("fig12", "Figure 12: STREAM vs Fastswap", Exp_params.fig12);
    ("fig13", "Figure 13: I/O amplification", Exp_apps.fig13);
    ("fig14", "Figure 14: analytics application", Exp_apps.fig14);
    ("fig15", "Figure 15: analytics chunking variants", Exp_apps.fig15);
    ("fig16", "Figure 16: memcached skew sweep", Exp_apps.fig16);
    ("fig17", "Figure 17: NAS suite", Exp_nas.fig17);
    ("table3", "Table 3: NAS inventory", Exp_nas.table3);
    ("compile_costs", "Section 4.6: compilation costs", Exp_tables.compile_costs);
    ("ablate_state_table", "Ablation: object state table",
      Exp_nas.ablate_state_table);
    ("concurrency", "Concurrency: latency hiding on the TCP backend",
      Exp_nas.concurrency);
    ("ablate_multisize", "Ablation: multi-object-size heap",
      Exp_nas.ablate_multisize);
    ("ablate_eviction", "Ablation: evacuator hotness tracking",
      Exp_nas.ablate_eviction);
    ("table4", "Table 4: qualitative comparison", Exp_tables.table4);
    ("related_dilos", "Related work: DiLOS-style LibOS baseline",
      Exp_tables.related_dilos);
    ("hw_kona", "Section 5: Kona-style hardware interposition",
      Exp_tables.hw_kona);
    ("robustness_scale", "Methodology: scale invariance of the shapes",
      Exp_tables.robustness_scale);
    ("guard_elision", "Static analysis: redundant-guard elision",
      Exp_elision.guard_elision);
    ("interproc_elision", "Static analysis: interprocedural summaries",
      Exp_elision.interproc_elision);
    ("faults_goodput", "Robustness: goodput under fabric faults",
      Exp_faults.faults_goodput);
    ("durability", "Robustness: replicated tier vs crash faults",
      Exp_durability.durability);
    ("attribution", "Observability: per-class latency attribution",
      Exp_attribution.attribution);
    ("serving_slo", "Robustness: SLO vs offered load per backend",
      Exp_serving.serving_slo);
    ("engine_speedup", "Infrastructure: compiled engine dispatch throughput",
      Exp_engine.engine_speedup);
    ("hybrid_routing", "Hybrid data plane: guards vs paging per site",
      Exp_hybrid.hybrid_routing);
    ("shape_routing", "Shape analysis: routing helper-hidden pointer chases",
      Exp_shape.shape_routing);
  ]

open Cmdliner
open Cmdliner.Term.Syntax

let run_experiments selected =
  let selected = if selected = [] then experiments else selected in
  Printf.printf
    "TrackFM reproduction benchmark harness%s — %d experiment(s)\n\n"
    (if !Bench_common.quick then " (quick mode)" else "")
    (List.length selected);
  List.iter
    (fun (name, title, f) ->
      Printf.printf "### %s — %s\n" name title;
      let t0 = Unix.gettimeofday () in
      f ();
      let elapsed = Unix.gettimeofday () -. t0 in
      Bench_common.flush_metrics ~experiment:name ~elapsed_s:elapsed;
      Printf.printf "[%s done in %.1fs]\n\n%!" name elapsed)
    selected

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let dir_arg name ~doc =
  Arg.(value & opt (some string) None & info [ name ] ~docv:"DIR" ~doc)

let term =
  let+ selected =
    Arg.(
      value
      & pos_all
          (enum (List.map (fun ((n, _, _) as e) -> (n, e)) experiments))
          []
      & info [] ~docv:"EXPERIMENT"
          ~doc:"Experiments to run, in order (default: all).")
  and+ quick =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Quarter the workload sizes for a fast pass.")
  and+ metrics_dir =
    dir_arg "metrics-dir"
      ~doc:"Also write each experiment's tables as JSON to $(docv)."
  and+ attribution_dir =
    dir_arg "attribution-dir"
      ~doc:
        "Span-traced experiments also write their per-run attribution JSON \
         to $(docv)."
  and+ engine = Run_spec.engine_term
  and+ fabric = Run_spec.fabric_term in
  Option.iter mkdir_p metrics_dir;
  Option.iter mkdir_p attribution_dir;
  Bench_common.quick := quick;
  Bench_common.metrics_dir := metrics_dir;
  Bench_common.attribution_dir := attribution_dir;
  Bench_common.setup := { engine; fabric };
  run_experiments selected

let () =
  exit
    (Cmd.eval
       (Cmd.v
          (Cmd.info "main.exe"
             ~doc:
               "Run the reproduction's experiments: one per paper table or \
                figure, plus the robustness, observability and analysis \
                studies")
          term))
