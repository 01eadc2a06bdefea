(* Tests for lib/telemetry: the log-bucketed histogram, the counter
   time-series sampler, the Chrome-trace exporter, and the guard-site
   attribution wired through the TrackFM runtime. *)

let h_of values =
  let h = Telemetry.Histogram.create () in
  List.iter (Telemetry.Histogram.record h) values;
  h

let test_histogram_small_exact () =
  (* Values 0..15 land in exact buckets, so quantiles are exact. *)
  let h = h_of [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15 ] in
  Alcotest.(check int) "count" 16 (Telemetry.Histogram.count h);
  Alcotest.(check int) "min" 0 (Telemetry.Histogram.min_value h);
  Alcotest.(check int) "max" 15 (Telemetry.Histogram.max_value h);
  Alcotest.(check int) "q0" 0 (Telemetry.Histogram.quantile h 0.0);
  Alcotest.(check int) "q1" 15 (Telemetry.Histogram.quantile h 1.0);
  Alcotest.(check int) "p50" 7 (Telemetry.Histogram.quantile h 0.5)

let test_histogram_quantile_error_bound () =
  (* Uniform 1..10_000: every quantile must be within the documented
     1/16 relative error of the true nearest-rank value. *)
  let h = h_of (List.init 10_000 (fun i -> i + 1)) in
  List.iter
    (fun q ->
      let est = float_of_int (Telemetry.Histogram.quantile h q) in
      let exact = q *. 10_000.0 in
      let rel = abs_float (est -. exact) /. exact in
      if rel > 1.0 /. 16.0 then
        Alcotest.failf "q=%.2f: estimate %.0f vs exact %.0f (rel %.3f)" q est
          exact rel)
    [ 0.1; 0.25; 0.5; 0.9; 0.99 ];
  Alcotest.(check int) "min exact" 1 (Telemetry.Histogram.min_value h);
  Alcotest.(check int) "max exact" 10_000 (Telemetry.Histogram.max_value h)

let test_histogram_edges () =
  let h = Telemetry.Histogram.create () in
  (try
     ignore (Telemetry.Histogram.quantile h 0.5);
     Alcotest.fail "empty histogram accepted"
   with Invalid_argument _ -> ());
  Telemetry.Histogram.record h (-5);
  Alcotest.(check int) "negative clamps to 0" 0
    (Telemetry.Histogram.quantile h 0.5);
  Telemetry.Histogram.record h max_int;
  Alcotest.(check int) "max_int survives" max_int
    (Telemetry.Histogram.max_value h);
  (try
     ignore (Telemetry.Histogram.quantile h 1.5);
     Alcotest.fail "q>1 accepted"
   with Invalid_argument _ -> ());
  Telemetry.Histogram.record_n h 7 0;
  Telemetry.Histogram.record_n h 7 (-3);
  Alcotest.(check int) "record_n n<=0 is a no-op" 2
    (Telemetry.Histogram.count h)

let test_histogram_merge () =
  let a = h_of [ 1; 2; 3 ] and b = h_of [ 100; 200 ] in
  Telemetry.Histogram.merge_into ~dst:a b;
  Alcotest.(check int) "count" 5 (Telemetry.Histogram.count a);
  Alcotest.(check int) "min" 1 (Telemetry.Histogram.min_value a);
  Alcotest.(check int) "max" 200 (Telemetry.Histogram.max_value a);
  Alcotest.(check int) "total" (1 + 2 + 3 + 100 + 200)
    (Telemetry.Histogram.total a)

let test_histogram_merge_list () =
  (* The fleet view: merging per-tenant histograms must agree with
     having recorded every sample into a single histogram. *)
  let samples =
    [ [ 3; 17; 17; 250; 4096 ]; [ 1; 2; 900_000 ]; []; [ 12_345; 77 ] ]
  in
  let merged = Telemetry.Histogram.merge (List.map h_of samples) in
  let single = h_of (List.concat samples) in
  Alcotest.(check int) "count" (Telemetry.Histogram.count single)
    (Telemetry.Histogram.count merged);
  Alcotest.(check int) "min" (Telemetry.Histogram.min_value single)
    (Telemetry.Histogram.min_value merged);
  Alcotest.(check int) "max" (Telemetry.Histogram.max_value single)
    (Telemetry.Histogram.max_value merged);
  Alcotest.(check int) "total" (Telemetry.Histogram.total single)
    (Telemetry.Histogram.total merged);
  List.iter
    (fun q ->
      Alcotest.(check int)
        (Printf.sprintf "quantile %.3f" q)
        (Telemetry.Histogram.quantile single q)
        (Telemetry.Histogram.quantile merged q))
    [ 0.0; 0.25; 0.5; 0.9; 0.99; 0.999; 1.0 ];
  Alcotest.(check bool) "merge [] is empty" true
    (Telemetry.Histogram.is_empty (Telemetry.Histogram.merge []));
  (* Inputs are left untouched. *)
  let a = h_of [ 1; 2 ] in
  ignore (Telemetry.Histogram.merge [ a; h_of [ 50 ] ]);
  Alcotest.(check int) "input histogram untouched" 2
    (Telemetry.Histogram.count a)

let test_slo_parse_lines () =
  let rules =
    match
      Telemetry.Slo.parse_lines
        [
          "# fleet SLOs";
          "";
          "lookup:p99<=250k,p50<=40k";
          "get:p999<=2m;scan:max<=10m";
        ]
    with
    | Ok r -> r
    | Error e -> Alcotest.fail ("good file rejected: " ^ e)
  in
  Alcotest.(check (list string)) "all rules, in order"
    [ "lookup"; "get"; "scan" ]
    (List.map (fun r -> r.Telemetry.Slo.cls) rules)

let test_slo_parse_lines_names_bad_line () =
  match
    Telemetry.Slo.parse_lines
      [ "lookup:p99<=250k"; "# fine"; ""; "get:p50<=oops" ]
  with
  | Ok _ -> Alcotest.fail "bad file accepted"
  | Error e ->
      let has sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length e && (String.sub e i n = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "error %S names the 1-based line" e)
        true (has "line 4");
      (* An attribution file stores p50/p90/p99/p999 only. *)
      Alcotest.(check (result reject string))
        "unrecorded percentile"
        (Error
           "metric \"p95\" is not recorded (want p50, p90, p99, p999, mean or \
            max)")
        (Result.map ignore (Telemetry.Slo.parse "lookup:p95<=40k"))

let test_shed_event_fires_flight_once () =
  let clock = Memsim.Clock.create () in
  let sink =
    Telemetry.Sink.recording ~trace:false ~series_interval:0 ~spans:true
      ~op_classes:[ (0, "t0") ] clock
  in
  let path = Filename.temp_file "tfm-shed-flight" ".json" in
  Telemetry.Sink.set_flight_recorder sink ~path
    ~meta:[ ("test", Telemetry.Json.String "shed") ];
  Alcotest.(check (option string)) "armed, not yet fired" None
    (Telemetry.Sink.flight_dumped sink);
  Telemetry.Sink.shed_event sink ~kind:"reject" ~detail:"qlen=9 deadline";
  Alcotest.(check (option string)) "first shed dumps" (Some path)
    (Telemetry.Sink.flight_dumped sink);
  (* Dump-once: a later shed must not rewrite the snapshot. *)
  Sys.remove path;
  Telemetry.Sink.shed_event sink ~kind:"shed" ~detail:"breaker_open";
  Alcotest.(check bool) "second shed does not re-dump" false
    (Sys.file_exists path);
  (* And the Nop sink swallows it. *)
  Telemetry.Sink.shed_event Telemetry.Sink.nop ~kind:"reject" ~detail:"x"

let test_json_rendering () =
  let open Telemetry.Json in
  Alcotest.(check string) "escaping" "\"a\\\"b\\n\\\\\""
    (to_string (String "a\"b\n\\"));
  Alcotest.(check string) "obj"
    "{\"x\":1,\"y\":[true,null,1.5]}"
    (to_string (Obj [ ("x", Int 1); ("y", List [ Bool true; Null; Float 1.5 ]) ]))

(* -- series: sampled through the clock hook ----------------------------- *)

let test_series_sampling () =
  let clock = Clock.create () in
  let sink = Telemetry.Sink.recording ~trace:false ~series_interval:1_000 clock in
  for _ = 1 to 50 do
    Clock.count clock "evt" 2;
    Clock.tick clock 100
  done;
  Telemetry.Sink.final_sample sink;
  let r = Option.get (Telemetry.Sink.recorder sink) in
  let s = Option.get r.Telemetry.Sink.series in
  (* 5000 cycles at interval 1000 -> 5 boundary samples; the final
     sample lands on the last boundary and is deduplicated. *)
  Alcotest.(check int) "sample count" 5 (Telemetry.Series.length s);
  let csv = Telemetry.Series.to_csv s in
  let first_line = List.hd (String.split_on_char '\n' csv) in
  Alcotest.(check string) "csv header" "cycles,evt" first_line;
  (* Cumulative counter 2-per-100-cycles: at cycle 1000 it reads 20. *)
  (match Telemetry.Series.samples s with
  | { Telemetry.Series.at; counters } :: _ ->
      Alcotest.(check int) "first sample at boundary" 1_000 at;
      Alcotest.(check (list (pair string int))) "first value" [ ("evt", 20) ]
        counters
  | [] -> Alcotest.fail "no samples");
  let deltas = Telemetry.Series.deltas s "evt" in
  List.iter
    (fun (_, d) -> Alcotest.(check (float 1e-9)) "steady delta" 20.0 d)
    (List.tl deltas)

let test_series_reset_baseline () =
  (* A counter drop (clock reset at !bench_begin) restarts the delta
     baseline instead of producing a huge negative delta. *)
  let s = Telemetry.Series.create ~interval:10 in
  Telemetry.Series.record s ~at:10 [ ("c", 100) ];
  Telemetry.Series.record s ~at:20 [ ("c", 150) ];
  Telemetry.Series.record s ~at:30 [ ("c", 5) ];
  Telemetry.Series.record s ~at:40 [ ("c", 25) ];
  let ds = List.map snd (Telemetry.Series.deltas s "c") in
  Alcotest.(check bool) "no negative deltas" true
    (List.for_all (fun d -> d >= 0.0) ds)

(* -- trace: chrome trace_event export ----------------------------------- *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_trace_export () =
  let tr = Telemetry.Trace.create () in
  Telemetry.Trace.complete tr ~name:"guard.slow" ~cat:"guard" ~ts:2400 ~dur:240
    ~args:[ ("site", Telemetry.Json.String "main:%3") ]
    ();
  Telemetry.Trace.instant tr ~name:"fetch" ~cat:"net" ~ts:4800 ();
  Telemetry.Trace.counter tr ~name:"tfm.guards" ~ts:4800 [ ("fast", 10) ];
  let s = Telemetry.Trace.to_string tr in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains ~needle s))
    [
      "\"traceEvents\"";
      "\"ph\":\"X\"";
      "\"ph\":\"i\"";
      "\"ph\":\"C\"";
      "\"guard.slow\"";
      (* 2400 cycles at 2.4 GHz = 1 microsecond *)
      "\"ts\":1";
      "\"dur\":0.1";
      "main:%3";
      "\"droppedEvents\":0";
    ]

let test_trace_limit () =
  let tr = Telemetry.Trace.create ~limit:2 () in
  for i = 1 to 5 do
    Telemetry.Trace.instant tr ~name:"e" ~ts:i ()
  done;
  Alcotest.(check int) "stored" 2 (Telemetry.Trace.length tr);
  Alcotest.(check int) "dropped" 3 (Telemetry.Trace.dropped tr);
  Alcotest.(check bool) "dropped reported" true
    (contains ~needle:"\"droppedEvents\":3" (Telemetry.Trace.to_string tr))

(* -- end to end: attribution on a real workload ------------------------- *)

let stream = Workloads.Stream.workload ~n:4_000 Workloads.Stream.Sum

let stream_opts =
  Workloads.Driver.tfm_defaults
    ~local_budget:(max 65536 (stream.working_set / 4))

let run_tfm_recording ?(series_interval = 50_000) () =
  let sink = ref Telemetry.Sink.nop in
  let telemetry clock =
    let s = Telemetry.Sink.recording ~series_interval clock in
    sink := s;
    s
  in
  let o, _ = Workloads.Driver.run_trackfm ~telemetry stream.build stream_opts in
  Telemetry.Sink.final_sample !sink;
  (o, Option.get (Telemetry.Sink.recorder !sink))

let test_site_totals_match_clock () =
  let o, r = run_tfm_recording () in
  let tot = Telemetry.Site.totals r.Telemetry.Sink.sites in
  let c name = Workloads.Driver.counter o name in
  Alcotest.(check int) "fast guards" (c "tfm.fast_guards") tot.Telemetry.Site.fast;
  Alcotest.(check int) "slow guards" (c "tfm.slow_guards") tot.Telemetry.Site.slow;
  Alcotest.(check int) "locality guards" (c "tfm.locality_guards")
    tot.Telemetry.Site.locality;
  Alcotest.(check int) "custody skips" (c "tfm.custody_skips")
    tot.Telemetry.Site.custody;
  Alcotest.(check int) "bytes in" (c "net.bytes_in") tot.Telemetry.Site.bytes_in;
  (* Attribution names real IR sites, not the unknown fallback. *)
  Alcotest.(check bool) "sites are attributed" true
    (List.for_all
       (fun (k, _) -> k <> Telemetry.Sink.unknown_site)
       (Telemetry.Site.rows r.Telemetry.Sink.sites));
  (* The histogram saw every slow+locality guard. *)
  Alcotest.(check int) "latency histogram count"
    (c "tfm.slow_guards" + c "tfm.locality_guards")
    (Telemetry.Histogram.count r.Telemetry.Sink.guard_cycles);
  Alcotest.(check int) "fetch histogram count" (c "net.fetches")
    (Telemetry.Histogram.count r.Telemetry.Sink.fetch_bytes)

let test_recording_run_identical_to_disabled () =
  (* The acceptance bar for "zero-cost when disabled" read both ways:
     enabling telemetry must not change simulated time or any counter. *)
  let plain, _ = Workloads.Driver.run_trackfm stream.build stream_opts in
  let traced, r = run_tfm_recording () in
  Alcotest.(check int) "ret" plain.Workloads.Driver.ret
    traced.Workloads.Driver.ret;
  Alcotest.(check int) "cycles" plain.Workloads.Driver.cycles
    traced.Workloads.Driver.cycles;
  Alcotest.(check (list (pair string int))) "counters"
    (Clock.counters plain.Workloads.Driver.clock)
    (Clock.counters traced.Workloads.Driver.clock);
  (* And the recording actually captured something. *)
  Alcotest.(check bool) "trace non-empty" true
    (Telemetry.Trace.length (Option.get r.Telemetry.Sink.trace) > 0);
  Alcotest.(check bool) "series non-empty" true
    (Telemetry.Series.length (Option.get r.Telemetry.Sink.series) > 0)

let test_series_final_sample_matches_totals () =
  let o, r = run_tfm_recording () in
  let s = Option.get r.Telemetry.Sink.series in
  match List.rev (Telemetry.Series.samples s) with
  | [] -> Alcotest.fail "no samples"
  | last :: _ ->
      Alcotest.(check (list (pair string int))) "last sample = final counters"
        (Clock.counters o.Workloads.Driver.clock)
        last.Telemetry.Series.counters

let suite =
  ( "telemetry",
    [
      Alcotest.test_case "histogram small exact" `Quick
        test_histogram_small_exact;
      Alcotest.test_case "histogram quantile error" `Quick
        test_histogram_quantile_error_bound;
      Alcotest.test_case "histogram edges" `Quick test_histogram_edges;
      Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
      Alcotest.test_case "histogram merge = single" `Quick
        test_histogram_merge_list;
      Alcotest.test_case "slo parse lines" `Quick test_slo_parse_lines;
      Alcotest.test_case "slo bad line named" `Quick
        test_slo_parse_lines_names_bad_line;
      Alcotest.test_case "shed event flight dump-once" `Quick
        test_shed_event_fires_flight_once;
      Alcotest.test_case "json rendering" `Quick test_json_rendering;
      Alcotest.test_case "series sampling" `Quick test_series_sampling;
      Alcotest.test_case "series reset baseline" `Quick
        test_series_reset_baseline;
      Alcotest.test_case "trace export" `Quick test_trace_export;
      Alcotest.test_case "trace limit" `Quick test_trace_limit;
      Alcotest.test_case "site totals = clock counters" `Quick
        test_site_totals_match_clock;
      Alcotest.test_case "recording run identical to disabled" `Quick
        test_recording_run_identical_to_disabled;
      Alcotest.test_case "final sample = totals" `Quick
        test_series_final_sample_matches_totals;
    ] )
