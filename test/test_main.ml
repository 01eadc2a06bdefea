let () =
  Alcotest.run "trackfm-repro"
    [
      Test_util.suite;
      Test_ir.suite;
      Test_analysis.suite;
      Test_memsim.suite;
      Test_faults.suite;
      Test_cluster.suite;
      Test_aifm.suite;
      Test_fastswap.suite;
      Test_shenango.suite;
      Test_trackfm.suite;
      Test_checker.suite;
      Test_opt.suite;
      Test_interp.suite;
      Test_workloads.suite;
      Test_serving.suite;
      Test_telemetry.suite;
      Test_span.suite;
      Test_differential.suite;
      Test_engine.suite;
      Test_integration.suite;
      Test_run_spec.suite;
      Test_alloc.suite;
    ]
