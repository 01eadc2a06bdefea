(* trackfm_cli: compile-and-run any bundled workload under a chosen
   far-memory system and print its statistics.

   Examples:
     dune exec bin/trackfm_cli.exe -- run -w stream-sum -s trackfm -m 25
     dune exec bin/trackfm_cli.exe -- run -w memcached -s fastswap -m 10
     dune exec bin/trackfm_cli.exe -- list *)

open Workloads
open Cmdliner

type workload = {
  wname : string;
  describe : string;
  build : unit -> Ir.modul;
  blobs : (int * Bytes.t) list;
  working_set : int;
  expected : int;
  op_classes : (int * string) list;
      (* span operation classes the program marks with !op_begin/!op_end *)
}

let workloads () =
  let stream kernel =
    let n = 200_000 in
    {
      wname = "stream-" ^ Stream.kernel_name kernel;
      describe = "STREAM " ^ Stream.kernel_name kernel ^ " kernel";
      build = (fun () -> Stream.build ~n ~kernel ());
      blobs = [];
      working_set = Stream.working_set_bytes ~n ~kernel ();
      expected = Stream.checksum ~n ~kernel ();
      op_classes = [];
    }
  in
  let kme =
    let p = Kmeans.default_params ~n:15_000 in
    {
      wname = "kmeans";
      describe = "k-means clustering (dimension-major)";
      build = (fun () -> Kmeans.build p ());
      blobs = [];
      working_set = Kmeans.working_set_bytes p;
      expected = Kmeans.checksum p;
      op_classes = Kmeans.op_classes;
    }
  in
  let hm =
    let p = Hashmap.default_params ~keys:80_000 ~lookups:100_000 in
    {
      wname = "hashmap";
      describe = "Zipfian hashmap lookups";
      build = (fun () -> Hashmap.build p ());
      blobs = [ (0, Hashmap.trace_blob p) ];
      working_set = Hashmap.working_set_bytes p;
      expected = Hashmap.checksum p;
      op_classes = Hashmap.op_classes;
    }
  in
  let mc =
    let p = Memcached.default_params ~keys:80_000 ~gets:50_000 ~skew:1.1 in
    {
      wname = "memcached";
      describe = "memcached-style KV store, Zipf 1.1";
      build = (fun () -> Memcached.build p ());
      blobs = [ (0, Memcached.trace_blob p) ];
      working_set = Memcached.working_set_bytes p;
      expected = Memcached.checksum p;
      op_classes = Memcached.op_classes;
    }
  in
  let an =
    let p = Analytics.default_params ~rows:150_000 in
    {
      wname = "analytics";
      describe = "NYC-taxi-style dataframe queries";
      build = (fun () -> Analytics.build p ());
      blobs = [];
      working_set = Analytics.working_set_bytes p;
      expected = Analytics.checksum p;
      op_classes = [];
    }
  in
  let chase =
    let nodes = 60_000 in
    {
      wname = "pointer-chase";
      describe = "permuted linked-list traversal";
      build = (fun () -> Chase.build ~nodes ());
      blobs = [];
      working_set = Chase.working_set_bytes ~nodes;
      expected = Chase.checksum ~nodes;
      op_classes = [];
    }
  in
  let ll =
    let nodes = 40_000 and tnodes = 16_000 in
    {
      wname = "llist";
      describe = "helper-hidden list+tree traversal (shape analysis)";
      build = (fun () -> Llist.build ~nodes ~tnodes ());
      blobs = [];
      working_set = Llist.working_set_bytes ~nodes ~tnodes;
      expected = Llist.checksum ~nodes ~tnodes;
      op_classes = [];
    }
  in
  let nas kernel =
    let p = { Nas.kernel; scale = 1 } in
    {
      wname = "nas-" ^ Nas.kernel_name kernel;
      describe =
        "NAS " ^ String.uppercase_ascii (Nas.kernel_name kernel) ^ " kernel";
      build = (fun () -> Nas.build p ());
      blobs = [];
      working_set = Nas.working_set_bytes p;
      expected = Nas.checksum p;
      op_classes = [];
    }
  in
  List.map stream [ Stream.Sum; Stream.Copy; Stream.Scale; Stream.Triad ]
  @ [ kme; hm; mc; an; chase; ll ]
  @ List.map nas Nas.all_kernels

(* [-w NAME] resolves to the workload at parse time, so an unknown name is
   a one-line usage error before anything runs. *)
let workload_conv =
  let parse name =
    match List.find_opt (fun w -> w.wname = name) (workloads ()) with
    | Some w -> Ok w
    | None ->
        Error
          (Printf.sprintf "unknown workload %s; try: %s" name
             (String.concat ", " (List.map (fun w -> w.wname) (workloads ()))))
  in
  Arg.conv' (parse, fun ppf w -> Format.pp_print_string ppf w.wname)

let print_outcome w (o : Driver.outcome) =
  Printf.printf "checksum: %d (%s)\n" o.Driver.ret
    (if o.Driver.ret = w.expected then "correct" else "WRONG!");
  Printf.printf "cycles:   %s (%.2f ms at 2.4 GHz)\n"
    (Tfm_util.Units.cycles_to_string o.Driver.cycles)
    (float_of_int o.Driver.cycles /. 2.4e6);
  Printf.printf "instrs:   %d\n" o.Driver.instrs;
  let counters = Clock.counters o.Driver.clock in
  if counters <> [] then begin
    Printf.printf "counters:\n";
    List.iter (fun (k, v) -> Printf.printf "  %-28s %d\n" k v) counters
  end

let build_of w o1 =
  if o1 then fun () ->
    let m = w.build () in
    ignore (Tfm_opt.O1.run m);
    m
  else w.build

(* Every command's local-memory budget: [pct] percent of the working set,
   and at least 16 objects. *)
let local_budget ?(object_size = 4096) w pct =
  max (16 * object_size) (w.working_set * pct / 100)

let faults_on (spec : Run_spec.t) =
  Faults.enabled (Run_spec.injector spec.fabric)

(* One workload execution under the spec's system, returning the outcome
   and (for trackfm) the compile report. The telemetry factory is applied
   to the run's fresh clock inside the driver; the fault injector is fresh
   per run (its random stream is stateful). *)
let exec_system ?(route_hotspots = []) (spec : Run_spec.t) w ~telemetry build =
  let engine = spec.engine
  and local_budget =
    local_budget ~object_size:spec.object_size w spec.local_pct
  in
  let faults = Run_spec.injector spec.fabric in
  let { Run_spec.replicas; ack; _ } = spec.fabric in
  match spec.system with
  | `Local -> (Driver.run_local ~engine ~blobs:w.blobs ~telemetry build, None)
  | `Fastswap ->
      ( Driver.run_fastswap ~engine ~blobs:w.blobs ~faults ~replicas ~ack
          ~telemetry ~local_budget build,
        None )
  | `Trackfm ->
      let opts =
        {
          (Driver.tfm_defaults ~local_budget) with
          Driver.object_size = spec.object_size;
          chunk_mode = spec.chunk;
          prefetch = spec.prefetch;
          use_summaries = spec.summaries;
          use_shapes = spec.shapes;
          route = spec.route;
          route_hotspots;
          faults;
          replicas;
          ack;
        }
      in
      let o, report =
        Driver.run_trackfm ~engine ~blobs:w.blobs ~telemetry build opts
      in
      (o, Some report)

(* Profiled routing's evidence: a fault-free pre-run with routing off and
   a recording sink; every hotspot whose slow-path guards outnumber its
   fast-path hits is handed to the route pass as upgrade evidence. The
   pre-run uses the same deterministic build, so (function, call id) keys
   line up with the profiled run's guards. *)
let profiled_hotspots spec w build =
  let sink, telemetry =
    Telemetry.Sink.capture ~trace:false ~series_interval:0 ()
  in
  let prerun =
    {
      spec with
      Run_spec.route = `Off;
      shapes = true;
      fabric = Run_spec.default_fabric;
    }
  in
  match exec_system prerun w ~telemetry build with
  | exception _ -> []
  | _ -> (
      match Telemetry.Sink.recorder !sink with
      | None -> []
      | Some r ->
          List.filter_map
            (fun ((k : Telemetry.Site.key), (s : Telemetry.Site.stat)) ->
              if k.Telemetry.Site.instr >= 0 && s.Telemetry.Site.slow > s.Telemetry.Site.fast
              then Some (k.Telemetry.Site.func, k.Telemetry.Site.instr)
              else None)
            (Telemetry.Site.rows r.Telemetry.Sink.sites)
          |> List.sort compare)

(* The one execution path behind run, report, report critical-path and
   report slo: profiled routing's pre-run, then the run itself. A
   transform the guard-coverage checker rejects is reported here and
   comes back as [Error violations]. *)
let execute (spec : Run_spec.t) w ~telemetry =
  let build = build_of w spec.o1 in
  let route_hotspots =
    if spec.route = `Profiled then profiled_hotspots spec w build else []
  in
  match exec_system ~route_hotspots spec w ~telemetry build with
  | result -> Ok result
  | exception Tfm_checker.Coverage.Unsound errs ->
      Printf.eprintf "checker: UNSOUND transform (%d violation(s)):\n"
        (List.length errs);
      List.iter (fun e -> Printf.eprintf "  %s\n" e) errs;
      Error errs

let print_compile_report = function
  | None -> ()
  | Some report ->
      let e = report.Trackfm.Pipeline.elision in
      Printf.printf
        "compile: %d guards (%d elided, %d hoisted, %d upgraded), %d chunk \
         sites, growth %.2fx, %.1f ms\n"
        (report.Trackfm.Pipeline.guards.Trackfm.Guard_pass.guarded_loads
        + report.Trackfm.Pipeline.guards.Trackfm.Guard_pass.guarded_stores)
        (Trackfm.Elide_pass.total_elided e)
        e.Trackfm.Elide_pass.hoisted e.Trackfm.Elide_pass.upgraded
        report.Trackfm.Pipeline.chunks.Trackfm.Chunk_pass.chunk_sites
        (Trackfm.Pipeline.code_growth report)
        (report.Trackfm.Pipeline.compile_time_s *. 1e3);
      let r = report.Trackfm.Pipeline.routing in
      if r.Trackfm.Route_pass.routed > 0 || r.Trackfm.Route_pass.kept_pinned > 0
         || r.Trackfm.Route_pass.kept_covered > 0
      then
        Printf.printf
          "routing: %d site(s) moved to the page path (%d profile-upgraded; \
           chasing sites kept: %d pinned, %d covered elsewhere)\n"
          r.Trackfm.Route_pass.routed r.Trackfm.Route_pass.upgraded
          r.Trackfm.Route_pass.kept_pinned r.Trackfm.Route_pass.kept_covered;
      print_newline ()

(* -- fault plumbing -- *)

(* Run identity carried into counters, attribution and flight-recorder
   files, so a dump names the configuration that produced it. *)
let run_meta (spec : Run_spec.t) w =
  let open Telemetry.Json in
  [
    ("workload", String w.wname);
    ("system", String (Run_spec.system_name spec.system));
    ("faults", String (Faults.to_string spec.fabric.faults));
    ("fault_seed", Int spec.fabric.fault_seed);
  ]

(* A deterministic record of one run: inputs (workload, system, fault
   spec, seed) and outputs (checksum, cycles, instrs, every clock
   counter, sorted by name). The pinned runs in ci/cells.ml diff this
   file across reruns and engines and against ci/golden/ — any
   nondeterminism or counter drift shows up as a byte difference. *)
let write_counters_json file (spec : Run_spec.t) w (o : Driver.outcome) =
  let open Telemetry.Json in
  let counters =
    List.sort
      (fun (a, _) (b, _) -> compare (a : string) b)
      (Clock.counters o.Driver.clock)
  in
  let j =
    Obj
      (run_meta spec w
      @ [
          ("replicas", Int spec.fabric.replicas);
          ("ack", Int spec.fabric.ack);
          ("checksum", Int o.Driver.ret);
          ("cycles", Int o.Driver.cycles);
          ("instrs", Int o.Driver.instrs);
          ("counters", Obj (List.map (fun (k, v) -> (k, Int v)) counters));
        ])
  in
  to_file file j

(* -- telemetry plumbing -- *)

(* The telemetry files run and report write, and the sampling interval
   behind --metrics. *)
type telemetry_out = {
  trace_file : string option;
  metrics_file : string option;
  sample_interval : int;
}

let write_trace_file file (r : Telemetry.Sink.recorder) =
  match r.Telemetry.Sink.trace with
  | None -> ()
  | Some tr ->
      let oc = open_out file in
      Telemetry.Trace.to_channel oc tr;
      close_out oc;
      Printf.printf "trace:    %s (%d events%s; open in chrome://tracing)\n"
        file (Telemetry.Trace.length tr)
        (match Telemetry.Trace.dropped tr with
        | 0 -> ""
        | d -> Printf.sprintf ", %d dropped" d)

let write_metrics_file file (r : Telemetry.Sink.recorder) =
  match r.Telemetry.Sink.series with
  | None ->
      Printf.eprintf
        "warning: --metrics %s requested but counter sampling is disabled \
         (--sample-interval <= 0); no CSV written\n"
        file
  | Some s ->
      let oc = open_out file in
      Telemetry.Series.to_channel oc s;
      close_out oc;
      Printf.printf "metrics:  %s (%d samples, every %s)\n" file
        (Telemetry.Series.length s)
        (Tfm_util.Units.cycles_to_string (Telemetry.Series.interval s))

(* Returns an exit code so an unwritable output path reads as a clean
   file error, not an uncaught exception (the run itself already
   printed). *)
let export_telemetry sink tel =
  Telemetry.Sink.final_sample sink;
  match Telemetry.Sink.recorder sink with
  | None -> 0
  | Some r -> (
      try
        Option.iter (fun f -> write_trace_file f r) tel.trace_file;
        Option.iter (fun f -> write_metrics_file f r) tel.metrics_file;
        0
      with Sys_error msg ->
        Printf.eprintf "cannot write telemetry output: %s\n" msg;
        1)

(* The sums-to-wall-clock invariant, asserted wherever spans are
   reported or exported: a violation is a tracing bug, never silent. *)
let assert_span_invariant sink =
  match Telemetry.Sink.spans sink with
  | None -> 0
  | Some sp ->
      if Telemetry.Span.violations sp = 0 then 0
      else begin
        Printf.eprintf
          "span invariant VIOLATED (%d): %s — attribution does not sum to \
           wall clock\n"
          (Telemetry.Span.violations sp)
          (Telemetry.Span.violation_note sp);
        1
      end

let export_attribution sink file ~meta =
  match file with
  | None -> 0
  | Some f -> (
      match Telemetry.Sink.attribution_json sink ~meta with
      | None -> 0
      | Some j -> (
          try
            Telemetry.Json.to_file f j;
            Printf.printf "attribution: %s (%d epochs)\n" f
              (Telemetry.Sink.epoch_count sink);
            0
          with Sys_error msg ->
            Printf.eprintf "cannot write attribution JSON: %s\n" msg;
            1))

(* The guard-coverage checker raises before the run's sink exists (the
   pipeline runs at compile time), so an armed flight recorder gets a
   minimal dump written here instead of via a sink trigger. *)
let write_minimal_flight file ~meta ~reason ~details =
  let open Telemetry.Json in
  let j =
    Obj
      (meta
      @ [
          ("kind", String "trackfm-flight-recorder");
          ("version", Int 1);
          ("reason", String reason);
          ("at", Int 0);
          ("details", List (List.map (fun s -> String s) details));
          ("spans", List []);
          ("events", List []);
        ])
  in
  try
    to_file file j;
    Printf.printf "flight recorder: dumped to %s (%s)\n" file reason
  with Sys_error msg ->
    Printf.eprintf "cannot write flight-recorder dump: %s\n" msg

let report_flight_dump sink =
  Option.iter
    (fun p -> Printf.printf "flight recorder: dumped to %s\n" p)
    (Telemetry.Sink.flight_dumped sink)

let run_cmd (spec : Run_spec.t) w tel ~counters_json ~attribution ~flight =
  let fabric = spec.fabric in
  Printf.printf
    "workload %s (%s), working set %s, local budget %s (%d%%), system %s\n"
    w.wname w.describe
    (Tfm_util.Units.bytes_to_string w.working_set)
    (Tfm_util.Units.bytes_to_string
       (local_budget ~object_size:spec.object_size w spec.local_pct))
    spec.local_pct
    (Run_spec.system_name spec.system);
  if spec.route <> `Off then
    Printf.printf "hybrid routing %s\n"
      (Trackfm.Route_pass.mode_to_string spec.route);
  if faults_on spec then
    Printf.printf "faults %s, seed %d\n"
      (Faults.to_string fabric.faults)
      fabric.fault_seed;
  if fabric.replicas > 1 then
    Printf.printf "replicas %d, ack %d\n" fabric.replicas fabric.ack;
  if spec.engine <> Engine.Interp then
    Printf.printf "engine %s\n" (Engine.to_string spec.engine);
  print_newline ();
  let want_spans = attribution <> None || flight <> None in
  let meta = run_meta spec w in
  let sink, telemetry =
    if tel.trace_file = None && tel.metrics_file = None && not want_spans then
      (ref Telemetry.Sink.nop, Driver.no_telemetry)
    else
      Telemetry.Sink.capture ~trace:(tel.trace_file <> None)
        ~series_interval:tel.sample_interval ~spans:want_spans
        ~op_classes:w.op_classes
        ?flight:(Option.map (fun f -> (f, meta)) flight)
        ()
  in
  match execute spec w ~telemetry with
  | Error errs ->
      Option.iter
        (fun f ->
          write_minimal_flight f ~meta ~reason:"checker-unsound" ~details:errs)
        flight;
      1
  | Ok (o, report) -> (
      print_compile_report report;
      print_outcome w o;
      match
        Option.iter (fun f -> write_counters_json f spec w o) counters_json
      with
      | () ->
          let rc_tel = export_telemetry !sink tel in
          let rc_attr = export_attribution !sink attribution ~meta in
          let rc_inv = if want_spans then assert_span_invariant !sink else 0 in
          report_flight_dump !sink;
          max rc_tel (max rc_attr rc_inv)
      | exception Sys_error msg ->
          Printf.eprintf "cannot write counters JSON: %s\n" msg;
          1)

(* -- report: run with a recording sink, print the hotspot table -- *)

let print_hotspots ?routing (o : Driver.outcome) (r : Telemetry.Sink.recorder)
    =
  let open Telemetry in
  let rows = Site.rows r.Sink.sites in
  (* The class column comes from the route pass's classification table;
     telemetry keys a row by the protecting call, which [class_of_call]
     resolves to the adjacent access. Allocation-site rows carry no
     access class, but the shape analysis may have resolved what
     structure the allocation anchors — shown as "alloc:<kind>". "-" =
     no routing report (routing off, or a non-trackfm system) or a site
     with no private call (chunk protocol, synthetic sites). *)
  let class_of (k : Site.key) =
    match routing with
    | None -> "-"
    | Some rep -> (
        match
          Trackfm.Route_pass.class_of_call rep ~func:k.Site.func
            ~instr:k.Site.instr
        with
        | Some c -> Tfm_analysis.Access_pattern.cls_to_string c
        | None -> (
            match
              Trackfm.Route_pass.shape_of_alloc rep ~func:k.Site.func
                ~instr:k.Site.instr
            with
            | Some kind -> "alloc:" ^ kind
            | None -> "-"))
  in
  if rows = [] then
    print_endline
      "no guard activity recorded in the measured region (local system, or \
       nothing survived !bench_begin)"
  else begin
    let t =
      Tfm_util.Table.create ~title:"guard-site hotspots (measured region)"
        ~columns:
          [
            "site"; "class"; "fast"; "slow"; "locality"; "custody"; "paged";
            "bytes in"; "bytes out"; "guard cyc";
          ]
    in
    let limit = 20 in
    List.iteri
      (fun i (k, s) ->
        if i < limit then
          Tfm_util.Table.add_rowf t
            "%s | %s | %d | %d | %d | %d | %d | %s | %s | %s"
            (Site.key_to_string k) (class_of k) s.Site.fast s.Site.slow
            s.Site.locality s.Site.custody s.Site.paged
            (Tfm_util.Units.bytes_to_string s.Site.bytes_in)
            (Tfm_util.Units.bytes_to_string s.Site.bytes_out)
            (Tfm_util.Units.cycles_to_string s.Site.guard_cycles))
      rows;
    let tot = Site.totals r.Sink.sites in
    Tfm_util.Table.add_rowf t
      "TOTAL (%d sites) | | %d | %d | %d | %d | %d | %s | %s | %s"
      (List.length rows) tot.Site.fast tot.Site.slow tot.Site.locality
      tot.Site.custody tot.Site.paged
      (Tfm_util.Units.bytes_to_string tot.Site.bytes_in)
      (Tfm_util.Units.bytes_to_string tot.Site.bytes_out)
      (Tfm_util.Units.cycles_to_string tot.Site.guard_cycles);
    Tfm_util.Table.print t;
    if List.length rows > limit then
      Printf.printf "(hottest %d of %d sites shown)\n" limit
        (List.length rows);
    print_endline "attribution cross-check (site totals vs clock counters):";
    let check name site_v counter_name =
      let cv = Driver.counter o counter_name in
      Printf.printf "  %-16s sites %10d   %-20s %10d   %s\n" name site_v
        counter_name cv
        (if site_v = cv then "OK" else "MISMATCH")
    in
    check "fast guards" tot.Site.fast "tfm.fast_guards";
    check "slow guards" tot.Site.slow "tfm.slow_guards";
    check "locality guards" tot.Site.locality "tfm.locality_guards";
    check "custody skips" tot.Site.custody "tfm.custody_skips";
    if tot.Site.paged > 0 || Driver.counter o "tfm.page_accesses" > 0 then
      check "paged accesses" tot.Site.paged "tfm.page_accesses"
  end

let print_histograms (r : Telemetry.Sink.recorder) =
  let open Telemetry in
  Printf.printf "slow-guard latency:  %s\n"
    (Histogram.summary_string ~unit_name:"cyc" r.Sink.guard_cycles);
  Printf.printf "fetch size:          %s\n"
    (Histogram.summary_string ~unit_name:"B" r.Sink.fetch_bytes);
  Printf.printf "retry backoff:       %s\n"
    (Histogram.summary_string ~unit_name:"cyc" r.Sink.retry_backoff)

let print_sparklines (r : Telemetry.Sink.recorder) =
  let open Telemetry in
  match r.Sink.series with
  | None -> ()
  | Some s ->
      let names = Series.names s in
      if names <> [] && Series.length s > 1 then begin
        Printf.printf
          "\ncounter activity over the run (per-%s deltas, %d samples):\n"
          (Tfm_util.Units.cycles_to_string (Series.interval s))
          (Series.length s);
        List.iter
          (fun name ->
            let vals = List.map snd (Series.deltas s name) in
            let peak = List.fold_left max 0.0 vals in
            if peak > 0.0 then
              Printf.printf "  %-22s %s  peak %.0f\n" name
                (Tfm_util.Ascii_plot.sparkline ~width:50 vals)
                peak)
          names
      end

let report_cmd (spec : Run_spec.t) w tel =
  Printf.printf "telemetry report: %s under %s, local budget %s (%d%%)%s%s\n\n"
    w.wname
    (Run_spec.system_name spec.system)
    (Tfm_util.Units.bytes_to_string
       (local_budget ~object_size:spec.object_size w spec.local_pct))
    spec.local_pct
    (if faults_on spec then
       Printf.sprintf ", faults %s seed %d"
         (Faults.to_string spec.fabric.faults)
         spec.fabric.fault_seed
     else "")
    (if spec.route <> `Off then
       ", routing " ^ Trackfm.Route_pass.mode_to_string spec.route
     else "");
  let sink, telemetry =
    Telemetry.Sink.capture ~trace:(tel.trace_file <> None)
      ~series_interval:tel.sample_interval ()
  in
  match execute spec w ~telemetry with
  | Error _ -> 1
  | Ok (o, report) ->
      Telemetry.Sink.final_sample !sink;
      print_compile_report report;
      print_outcome w o;
      print_newline ();
      (match Telemetry.Sink.recorder !sink with
      | None -> () (* unreachable: Sink.capture always records *)
      | Some r ->
          print_hotspots
            ?routing:
              (Option.map (fun rep -> rep.Trackfm.Pipeline.routing) report)
            o r;
          print_newline ();
          print_histograms r;
          print_sparklines r);
      export_telemetry !sink tel

(* -- report critical-path / report slo: span-attribution views -- *)

let cyc = Tfm_util.Units.cycles_to_string

(* Both views print from one row shape, built from an attribution
   document: the one a live span-traced run holds in memory, or one read
   back with --from. So a live run and its exported file give the same
   rows. [cq] takes one of the stored percentiles (50, 90, 99, 99.9). *)
type cp_class = {
  cname : string;
  cops : int;
  cwall_total : int;
  cwall_mean : float;
  cq : float -> int option;
  cwall_max : int;
  ccats : (string * int) list;
  cslowest : (int * int * (string * int) list) option; (* id, wall, cats *)
}

let cp_of_json j =
  let module J = Telemetry.Json in
  let int_of v =
    match v with
    | Some (J.Int n) -> n
    | Some (J.Float f) -> int_of_float f
    | _ -> 0
  in
  let float_of v =
    match v with
    | Some (J.Float f) -> f
    | Some (J.Int n) -> float_of_int n
    | _ -> 0.0
  in
  let cats_of v =
    match v with
    | Some (J.Obj kvs) ->
        List.filter_map
          (fun (k, x) -> match x with J.Int n -> Some (k, n) | _ -> None)
          kvs
    | _ -> []
  in
  let classes = match J.member "classes" j with Some (J.List l) -> l | _ -> [] in
  let rows =
    List.map
      (fun c ->
        let wmem k = Option.bind (J.member "wall" c) (J.member k) in
        {
          cname =
            (match J.member "name" c with Some (J.String s) -> s | _ -> "?");
          cops = int_of (J.member "ops" c);
          cwall_total = int_of (wmem "total");
          cwall_mean = float_of (wmem "mean");
          cq =
            (fun p ->
              (* wall_json keys its percentiles the way the SLO grammar
                 spells them (p50 ... p999), so reuse that rendering. *)
              match wmem (Telemetry.Slo.metric_name (Telemetry.Slo.P p)) with
              | Some (J.Int n) -> Some n
              | _ -> None);
          cwall_max = int_of (wmem "max");
          ccats = cats_of (J.member "cycles" c);
          cslowest =
            (match J.member "slowest" c with
            | Some (J.Obj _ as s) ->
                Some
                  ( int_of (J.member "id" s),
                    int_of (J.member "wall" s),
                    cats_of (J.member "cycles" s) )
            | _ -> None);
        })
      classes
  in
  let inv = J.member "invariant" j in
  ( rows,
    cats_of (J.member "background" j),
    int_of (Option.bind inv (J.member "violations")),
    match Option.bind inv (J.member "note") with
    | Some (J.String s) -> s
    | _ -> "" )

let print_critical_path ~title rows ~background ~violations ~note =
  if rows = [] then begin
    print_endline
      "no operation spans recorded (the workload marks no operations with \
       !op_begin, or the measured region ran none)";
    0
  end
  else begin
    let pct part whole =
      if whole = 0 then 0.0
      else 100.0 *. float_of_int part /. float_of_int whole
    in
    let lat =
      Tfm_util.Table.create ~title:(title ^ ": per-class latency (cycles)")
        ~columns:
          [ "class"; "ops"; "mean"; "p50"; "p90"; "p99"; "p999"; "max" ]
    in
    List.iter
      (fun c ->
        let q p = match c.cq p with Some v -> cyc v | None -> "-" in
        Tfm_util.Table.add_rowf lat "%s | %d | %.0f | %s | %s | %s | %s | %s"
          c.cname c.cops c.cwall_mean (q 50.0) (q 90.0) (q 99.0) (q 99.9)
          (cyc c.cwall_max))
      rows;
    Tfm_util.Table.print lat;
    print_newline ();
    let br =
      Tfm_util.Table.create
        ~title:"critical-path decomposition (share of wall cycles)"
        ~columns:("class" :: "wall" :: Telemetry.Span.cat_names)
    in
    List.iter
      (fun c ->
        let cells =
          List.map
            (fun n ->
              let v = try List.assoc n c.ccats with Not_found -> 0 in
              Printf.sprintf "%.1f%%" (pct v c.cwall_total))
            Telemetry.Span.cat_names
        in
        Tfm_util.Table.add_rowf br "%s | %s | %s" c.cname (cyc c.cwall_total)
          (String.concat " | " cells))
      rows;
    Tfm_util.Table.print br;
    let nonzero cats =
      String.concat ", "
        (List.filter_map
           (fun (n, v) ->
             if v > 0 then Some (Printf.sprintf "%s %s" n (cyc v)) else None)
           cats)
    in
    List.iter
      (fun c ->
        match c.cslowest with
        | None -> ()
        | Some (id, wall, cats) ->
            Printf.printf "slowest %-10s op #%d: %s wall = %s\n" c.cname id
              (cyc wall) (nonzero cats))
      rows;
    if List.exists (fun (_, v) -> v > 0) background then
      Printf.printf "outside spans (setup/background): %s\n"
        (nonzero background);
    if violations = 0 then begin
      print_endline
        "invariant: per-span category cycles sum exactly to wall clock (0 \
         violations)";
      0
    end
    else begin
      Printf.printf "INVARIANT VIOLATED (%d): %s\n" violations note;
      1
    end
  end

(* Reading back an exported attribution file: every failure mode (absent,
   unreadable, not JSON, wrong document) is a clear error naming the
   path, exit 1 — never a backtrace. *)
let load_attribution path =
  match
    try Ok (In_channel.with_open_bin path In_channel.input_all)
    with Sys_error msg -> Error msg
  with
  | Error msg ->
      Error (Printf.sprintf "cannot read attribution file %s: %s" path msg)
  | Ok contents -> (
      match Telemetry.Json.parse contents with
      | Error e ->
          Error (Printf.sprintf "attribution file %s is garbled: %s" path e)
      | Ok j -> (
          match Telemetry.Json.member "kind" j with
          | Some (Telemetry.Json.String "trackfm-attribution") -> Ok j
          | _ ->
              Error
                (Printf.sprintf
                   "attribution file %s is not a trackfm-attribution document \
                    (wrong or missing \"kind\"; was it written by run \
                    --attribution?)"
                   path)))

(* The span-based report views read their rows back from an exported
   attribution file (--from), or from the attribution document of a live
   span-traced run of the workload after [header] introduces it. [k] gets
   the rows' title. *)
let with_span_rows ~cmd (spec : Run_spec.t) workload from ~header k =
  match (from, workload) with
  | Some path, _ -> (
      match load_attribution path with
      | Error e ->
          prerr_endline e;
          1
      | Ok j -> k ~title:path (cp_of_json j))
  | None, None ->
      Printf.eprintf "report %s: pass -w WORKLOAD (live run) or --from FILE\n"
        cmd;
      1
  | None, Some w -> (
      header w;
      let sink, telemetry =
        Telemetry.Sink.capture ~trace:false ~series_interval:250_000
          ~spans:true ~op_classes:w.op_classes ()
      in
      match execute spec w ~telemetry with
      | Error _ -> 1
      | Ok (o, _report) -> (
          Telemetry.Sink.final_sample !sink;
          if o.Driver.ret <> w.expected then
            Printf.eprintf "warning: checksum %d does not match expected %d\n"
              o.Driver.ret w.expected;
          match Telemetry.Sink.attribution_json !sink ~meta:[] with
          | None ->
              prerr_endline "internal error: span tracker missing";
              1
          | Some j ->
              k
                ~title:(w.wname ^ " under " ^ Run_spec.system_name spec.system)
                (cp_of_json j)))

let critical_path_cmd (spec : Run_spec.t) workload from =
  with_span_rows ~cmd:"critical-path" spec workload from
    ~header:(fun w ->
      Printf.printf "critical-path report: %s under %s, faults %s, seed %d\n\n"
        w.wname
        (Run_spec.system_name spec.system)
        (Faults.to_string spec.fabric.faults)
        spec.fabric.fault_seed)
    (fun ~title (rows, background, violations, note) ->
      print_critical_path ~title rows ~background ~violations ~note)

let print_slo_outcomes outcomes =
  let open Telemetry in
  let t =
    Tfm_util.Table.create ~title:"SLO evaluation"
      ~columns:[ "class"; "metric"; "limit"; "actual"; "verdict" ]
  in
  List.iter
    (fun o ->
      Tfm_util.Table.add_rowf t "%s | %s | %s | %s | %s" o.Slo.o_cls
        (Slo.metric_name o.Slo.o_metric)
        (cyc o.Slo.o_limit)
        (match o.Slo.o_actual with Some v -> cyc v | None -> "-")
        (if o.Slo.o_pass then "PASS" else "FAIL"))
    outcomes;
  Tfm_util.Table.print t;
  if Slo.all_pass outcomes then begin
    print_endline "all SLOs met";
    0
  end
  else begin
    print_endline "SLO violations present";
    1
  end

let lookup_rows rows ~cls ~metric =
  match List.find_opt (fun r -> r.cname = cls) rows with
  | None -> None
  | Some r -> (
      match metric with
      | Telemetry.Slo.P p -> r.cq p
      | Telemetry.Slo.Mean ->
          if r.cops = 0 then None
          else Some (int_of_float (r.cwall_mean +. 0.5))
      | Telemetry.Slo.Max -> if r.cops = 0 then None else Some r.cwall_max)

(* The SLO rules come from exactly one of --slo SPEC (inline) or
   --slo-file FILE (one class:objectives spec per line, '#' comments);
   a file error names the offending line. *)
let load_slo_rules slo_spec slo_file =
  match (slo_spec, slo_file) with
  | None, None -> Error "report slo: pass --slo SPEC or --slo-file FILE"
  | Some _, Some _ ->
      Error "report slo: --slo and --slo-file are mutually exclusive"
  | Some spec, None -> (
      match Telemetry.Slo.parse spec with
      | Ok rules -> Ok (spec, rules)
      | Error e -> Error (Printf.sprintf "bad --slo spec: %s" e))
  | None, Some file -> (
      match
        try Ok (In_channel.with_open_bin file In_channel.input_lines)
        with Sys_error msg -> Error msg
      with
      | Error msg ->
          Error (Printf.sprintf "cannot read SLO file %s: %s" file msg)
      | Ok lines -> (
          match Telemetry.Slo.parse_lines lines with
          | Ok rules -> Ok (file, rules)
          | Error e -> Error (Printf.sprintf "bad SLO file %s: %s" file e)))

let slo_cmd (spec : Run_spec.t) workload from slo_spec slo_file =
  match load_slo_rules slo_spec slo_file with
  | Error e ->
      prerr_endline e;
      1
  | Ok (spec_name, rules) ->
      with_span_rows ~cmd:"slo" spec workload from
        ~header:(fun w ->
          Printf.printf "SLO report: %s under %s, spec %s\n\n" w.wname
            (Run_spec.system_name spec.system)
            spec_name)
        (fun ~title:_ (rows, _, violations, note) ->
          let rc_slo =
            print_slo_outcomes
              (Telemetry.Slo.evaluate rules
                 ~lookup:(fun ~cls metric -> lookup_rows rows ~cls ~metric))
          in
          if violations = 0 then rc_slo
          else begin
            Printf.printf "INVARIANT VIOLATED (%d): %s\n" violations note;
            1
          end)

(* -- serve: the overload-robust multi-tenant serving scenario -- *)

let print_serving_result (r : Serving.result) =
  let p = r.Serving.rp in
  Printf.printf
    "backend %s, offered %.1f req/Mcyc, %d arrivals, %d connections\n"
    (Serving.backend_name p.Serving.backend)
    p.Serving.rate p.Serving.requests p.Serving.connections;
  let c = p.Serving.controls in
  Printf.printf
    "controls: admission %s, shedding %s, degradation %s (queue cap %d, \
     deadline %s)\n"
    (if c.Serving.admission then "on" else "off")
    (if c.Serving.shedding then "on" else "off")
    (if c.Serving.degradation then "on" else "off")
    c.Serving.queue_cap (cyc c.Serving.deadline);
  if Faults.enabled (Faults.create ~seed:p.Serving.fault_seed p.Serving.faults)
  then
    Printf.printf "faults %s, seed %d\n"
      (Faults.to_string p.Serving.faults)
      p.Serving.fault_seed;
  if p.Serving.replicas > 1 then
    Printf.printf "replicas %d, ack %d\n" p.Serving.replicas p.Serving.ack;
  print_newline ();
  let t =
    Tfm_util.Table.create ~title:"per-tenant outcomes"
      ~columns:
        [
          "tenant"; "offered"; "admitted"; "completed"; "good"; "degraded";
          "rejected"; "shed"; "throttled"; "p50"; "p99"; "p999";
        ]
  in
  let q h p =
    match Telemetry.Histogram.percentile_opt h p with
    | Some v -> cyc v
    | None -> "-"
  in
  List.iter
    (fun s ->
      Tfm_util.Table.add_rowf t
        "%s | %d | %d | %d | %d | %d | %d | %d | %d | %s | %s | %s"
        s.Serving.tenant.Serving.tn_name s.Serving.offered s.Serving.admitted
        s.Serving.completed s.Serving.good s.Serving.degraded
        s.Serving.rejected s.Serving.shed s.Serving.throttled
        (q s.Serving.latency 50.0) (q s.Serving.latency 99.0)
        (q s.Serving.latency 99.9))
    r.Serving.stats;
  Tfm_util.Table.print t;
  Printf.printf
    "\nduration %s, goodput %.2f good/Mcyc, fleet p99 %s, max queue %d\n"
    (cyc r.Serving.duration) r.Serving.goodput (q r.Serving.fleet 99.0)
    r.Serving.max_queue

let serving_meta (p : Serving.params) =
  let open Telemetry.Json in
  [
    ("scenario", String "serving");
    ("backend", String (Serving.backend_name p.Serving.backend));
    ("rate_per_mcyc", Float p.Serving.rate);
    ("faults", String (Faults.to_string p.Serving.faults));
    ("fault_seed", Int p.Serving.fault_seed);
    ("seed", Int p.Serving.seed);
  ]

let serve_cmd (p : Serving.params) serving_json attribution_file flight_file =
  let meta = serving_meta p in
  let want_spans = attribution_file <> None || flight_file <> None in
  match
    Serving.run ~spans:want_spans
      ?flight:(Option.map (fun f -> (f, meta)) flight_file)
      p
  with
  | exception Invalid_argument msg ->
      prerr_endline msg;
      1
  | r -> (
      print_serving_result r;
      let rc_attr = export_attribution r.Serving.sink attribution_file ~meta in
      let rc_inv =
        if want_spans then assert_span_invariant r.Serving.sink else 0
      in
      report_flight_dump r.Serving.sink;
      match
        Option.iter
          (fun f ->
            Telemetry.Json.to_file f (Serving.result_json r);
            Printf.printf "serving JSON: %s\n" f)
          serving_json
      with
      | () -> max rc_attr rc_inv
      | exception Sys_error msg ->
          Printf.eprintf "cannot write serving JSON: %s\n" msg;
          1)

(* -- validate: JSON schema check (CI validates exported traces) -- *)

let validate_cmd schema_file input_file =
  let read what path =
    match In_channel.with_open_bin path In_channel.input_all with
    | contents -> Ok contents
    | exception Sys_error msg ->
        Error (Printf.sprintf "cannot read %s %s: %s" what path msg)
  in
  let parse what path contents =
    match Telemetry.Json.parse contents with
    | Ok j -> Ok j
    | Error e -> Error (Printf.sprintf "%s %s is not valid JSON: %s" what path e)
  in
  let load what path =
    Result.bind (read what path) (parse what path)
  in
  match (load "schema" schema_file, load "input" input_file) with
  | Error e, _ | _, Error e ->
      prerr_endline e;
      1
  | Ok schema, Ok v -> (
      match Telemetry.Json.validate ~schema v with
      | Ok () ->
          Printf.printf "%s: valid against %s\n" input_file schema_file;
          0
      | Error e ->
          Printf.eprintf "%s: schema violation: %s\n" input_file e;
          1)

let sweep_cmd w object_size =
  Printf.printf "sweeping %s (working set %s), object size %dB\n\n" w.wname
    (Tfm_util.Units.bytes_to_string w.working_set)
    object_size;
  let t =
    Tfm_util.Table.create ~title:"slowdown vs all-local, by local memory"
      ~columns:[ "local mem %"; "TrackFM"; "Fastswap" ]
  in
  let lo = Driver.run_local ~blobs:w.blobs w.build in
  let tfm_pts = ref [] and fs_pts = ref [] in
  List.iter
    (fun pct ->
      let budget = local_budget ~object_size w pct in
      let opts =
        { (Driver.tfm_defaults ~local_budget:budget) with Driver.object_size }
      in
      let tfm, _ = Driver.run_trackfm ~blobs:w.blobs w.build opts in
      let fs =
        Driver.run_fastswap ~blobs:w.blobs ~local_budget:budget w.build
      in
      assert (tfm.Driver.ret = w.expected && fs.Driver.ret = w.expected);
      let sl c = float_of_int c /. float_of_int lo.Driver.cycles in
      tfm_pts := (float_of_int pct, sl tfm.Driver.cycles) :: !tfm_pts;
      fs_pts := (float_of_int pct, sl fs.Driver.cycles) :: !fs_pts;
      Tfm_util.Table.add_rowf t "%d | %.2f | %.2f" pct (sl tfm.Driver.cycles)
        (sl fs.Driver.cycles))
    [ 10; 25; 50; 75; 100 ];
  Tfm_util.Table.print t;
  Tfm_util.Ascii_plot.print ~x_label:"local mem %"
    ~title:(w.wname ^ ": slowdown vs all-local")
    [
      { Tfm_util.Ascii_plot.label = "TrackFM"; points = !tfm_pts };
      { label = "Fastswap"; points = !fs_pts };
    ];
  0

let autotune_cmd w local_pct =
  let budget = local_budget w local_pct in
  Printf.printf
    "autotuning object size for %s at %d%% local memory (Section 3.2's \
     exhaustive recompile-and-run search)\n\n"
    w.wname local_pct;
  let best, results =
    Driver.autotune_object_size ~blobs:w.blobs w.build ~local_budget:budget
  in
  List.iter
    (fun (osz, cycles) ->
      Printf.printf "  %5dB -> %s%s\n" osz
        (Tfm_util.Units.cycles_to_string cycles)
        (if osz = best then "   <- chosen" else ""))
    results;
  0

(* Static-analysis lint: compile every workload under each chunk mode,
   with and without the guard optimizer, and run the guard-coverage
   verifier plus the elision-witness re-check over the transformed IR.
   Compile-only (no execution, no profile run), so this is fast enough
   for the `check` cell of `dune runtest`. Exits non-zero on any
   violation. *)
let check_cmd workload engine =
  let selected = match workload with None -> workloads () | Some w -> [ w ] in
  let failures = ref 0 in
  List.iter
    (fun w ->
      List.iter
        (fun (mode_name, chunk_mode) ->
          List.iter
            (fun elide ->
              List.iter
                (fun summaries ->
                  List.iter
                    (fun route ->
                      let m = w.build () in
                      let config =
                        {
                          Trackfm.Pipeline.default_config with
                          chunk_mode;
                          elide;
                          summaries;
                          route;
                          check = false (* we report instead of raising *);
                        }
                      in
                      let report = Trackfm.Pipeline.run config m in
                      let e = report.Trackfm.Pipeline.elision in
                      let r = report.Trackfm.Pipeline.routing in
                      let violations =
                        Tfm_checker.Coverage.check_module ~summaries m
                      in
                      let witness_errors =
                        Tfm_checker.Coverage.check_witnesses m
                          e.Trackfm.Elide_pass.elisions
                      in
                      let routing_errors =
                        Tfm_checker.Coverage.check_routing m
                          r.Trackfm.Route_pass.routes
                      in
                      let ok =
                        violations = [] && witness_errors = []
                        && routing_errors = []
                      in
                      Printf.printf
                        "%-14s chunk=%-5s elide=%-3s summ=%-3s route=%-6s \
                         guards=%5d elided=%4d (same %d congruent %d range \
                         %d) hoisted=%d upgraded=%d widened=%d routed=%d  \
                         %s\n"
                        w.wname mode_name
                        (if elide then "on" else "off")
                        (if summaries then "on" else "off")
                        (Trackfm.Route_pass.mode_to_string route)
                        (report.Trackfm.Pipeline.guards
                           .Trackfm.Guard_pass.guarded_loads
                        + report.Trackfm.Pipeline.guards
                            .Trackfm.Guard_pass.guarded_stores)
                        (Trackfm.Elide_pass.total_elided e)
                        e.Trackfm.Elide_pass.elided_same
                        e.Trackfm.Elide_pass.elided_congruent
                        e.Trackfm.Elide_pass.elided_range
                        e.Trackfm.Elide_pass.hoisted
                        e.Trackfm.Elide_pass.upgraded
                        e.Trackfm.Elide_pass.widened
                        r.Trackfm.Route_pass.routed
                        (if ok then "OK" else "UNSOUND");
                      if not ok then begin
                        incr failures;
                        List.iter
                          (fun v ->
                            Printf.printf "    violation: %s\n"
                              (Tfm_checker.Coverage.violation_to_string v))
                          violations;
                        List.iter
                          (fun msg -> Printf.printf "    witness: %s\n" msg)
                          witness_errors;
                        List.iter
                          (fun msg -> Printf.printf "    routing: %s\n" msg)
                          routing_errors
                      end)
                    [ `Off; `Static ])
                [ true; false ])
            [ true; false ])
        [ ("off", `Off); ("gated", `Gated) ])
    selected;
  (* With --engine compiled, also run each workload's raw module under
     both engines and require identical results: the static lint plus
     a runtime differential against the interpreter oracle. *)
  if engine = Engine.Compiled then begin
    print_newline ();
    List.iter
      (fun w ->
        let run engine =
          let o = Driver.run_local ~engine ~blobs:w.blobs w.build in
          ( o.Driver.ret,
            o.Driver.cycles,
            o.Driver.instrs,
            List.sort compare (Clock.counters o.Driver.clock) )
        in
        let oracle = run Engine.Interp and compiled = run Engine.Compiled in
        let ok = oracle = compiled in
        Printf.printf "%-14s engine-diff %s\n" w.wname
          (if ok then "OK" else "DIVERGED");
        if not ok then incr failures)
      selected
  end;
  if !failures > 0 then begin
    Printf.printf "\n%d unsound configuration(s)\n" !failures;
    1
  end
  else 0

(* Print the interprocedural view of one workload's raw module: the call
   graph (bottom-up SCCs, recursion marked), every function's computed
   summary, and the summary-coverage lint naming functions stuck at
   bottom. With --ir, also dump the IR with call sites annotated by
   their callee's summary. Deterministic output: CI diffs two runs. *)
let summaries_cmd w o1 show_ir =
  let m = (build_of w o1) () in
  let env = Tfm_analysis.Summary.compute m in
  print_string (Tfm_analysis.Summary.to_string m env);
  (match Tfm_analysis.Summary.lint m env with
  | [] -> print_endline "summary-coverage: all functions summarized"
  | stuck ->
      Printf.printf "summary-coverage: %d function(s) at bottom\n"
        (List.length stuck);
      List.iter (fun line -> Printf.printf "  %s\n" line) stuck);
  if show_ir then begin
    print_newline ();
    print_string
      (Printer.module_to_string_annotated
         (Tfm_analysis.Summary.annotate env)
         m)
  end;
  0

(* Static access-pattern classification dump: the evidence the hybrid
   route pass acts on, printed per function in deterministic order
   (function order, then ascending instruction id), plus the routing
   decisions a static-mode compile makes on the transformed module. CI
   byte-compares two runs of this output. *)
let classify_cmd w o1 json =
  let m = (build_of w o1) () in
  let env = Tfm_analysis.Summary.compute m in
  let shapes = Tfm_analysis.Shape.analyze m in
  let per_fun =
    List.map
      (fun f ->
        ( f.Ir.fname,
          Tfm_analysis.Access_pattern.analyze ~summaries:env ~shapes f ))
      m.Ir.funcs
  in
  let config =
    {
      Trackfm.Pipeline.default_config with
      Trackfm.Pipeline.route = `Static;
    }
  in
  let report = Trackfm.Pipeline.run config ((build_of w o1) ()) in
  let r = report.Trackfm.Pipeline.routing in
  if json then begin
    (* Machine-readable variant: field order is fixed by
       construction, so two runs are byte-identical and CI can both
       diff and schema-validate the output. *)
    let open Telemetry.Json in
    let site_json (s : Tfm_analysis.Access_pattern.site) =
      Obj
        [
          ("instr", Int s.Tfm_analysis.Access_pattern.instr_id);
          ("block", String s.Tfm_analysis.Access_pattern.block);
          ( "kind",
            String
              (if s.Tfm_analysis.Access_pattern.is_store then "store"
               else "load") );
          ("size", Int s.Tfm_analysis.Access_pattern.size);
          ( "class",
            String
              (Tfm_analysis.Access_pattern.cls_to_string
                 s.Tfm_analysis.Access_pattern.cls) );
          ( "stride",
            match s.Tfm_analysis.Access_pattern.stride with
            | Some v -> Int v
            | None -> Null );
          ("chain_depth", Int s.Tfm_analysis.Access_pattern.chain_depth);
          ( "shape",
            match s.Tfm_analysis.Access_pattern.shape with
            | Some k -> String k
            | None -> Null );
          ("density", Float s.Tfm_analysis.Access_pattern.density);
          ("rationale", String s.Tfm_analysis.Access_pattern.rationale);
        ]
    in
    let j =
      Obj
        [
          ("workload", String w.wname);
          ( "functions",
            List
              (List.map
                 (fun (fname, t) ->
                   Obj
                     [
                       ("name", String fname);
                       ( "sites",
                         List
                           (List.map site_json
                              (Tfm_analysis.Access_pattern.sites t)) );
                     ])
                 per_fun) );
          ( "routing",
            Obj
              [
                ("routed", Int r.Trackfm.Route_pass.routed);
                ("kept_pinned", Int r.Trackfm.Route_pass.kept_pinned);
                ("kept_covered", Int r.Trackfm.Route_pass.kept_covered);
                ("upgraded", Int r.Trackfm.Route_pass.upgraded);
                ( "routes",
                  List
                    (List.map
                       (fun (fname, (rt : Tfm_checker.Coverage.routing)) ->
                         Obj
                           [
                             ("func", String fname);
                             ( "access",
                               Int rt.Tfm_checker.Coverage.routed_access );
                             ("page_call", Int rt.Tfm_checker.Coverage.page_call);
                             ("class", String rt.Tfm_checker.Coverage.cls);
                           ])
                       r.Trackfm.Route_pass.routes) );
              ] );
        ]
    in
    print_endline (to_string j)
  end
  else begin
    List.iter
      (fun (_, t) -> print_string (Tfm_analysis.Access_pattern.dump t))
      per_fun;
    print_newline ();
    Printf.printf
      "hybrid routing (static): %d routed, %d kept pinned, %d kept covered\n"
      r.Trackfm.Route_pass.routed r.Trackfm.Route_pass.kept_pinned
      r.Trackfm.Route_pass.kept_covered;
    List.iter
      (fun (fname, (rt : Tfm_checker.Coverage.routing)) ->
        Printf.printf "  %s: %%%d -> page call %%%d [%s]\n" fname
          rt.Tfm_checker.Coverage.routed_access
          rt.Tfm_checker.Coverage.page_call rt.Tfm_checker.Coverage.cls)
      r.Trackfm.Route_pass.routes
  end;
  0

(* Shape-analysis dump (deterministic: CI byte-compares two runs), and
   — with [--shadow] — the dynamic audit: execute the statically routed
   program under the interpreter with the per-site depth recorder and
   cross-check every static class against the observed dependent-load
   depths. A lying shape summary that misroutes a site shows up here as
   a MISMATCH even though the structural checker (which never consults
   shape facts) accepts the module. *)
let shape_cmd w o1 shadow_mode local_pct =
  let m = (build_of w o1) () in
  print_string (Tfm_analysis.Shape.dump (Tfm_analysis.Shape.analyze m) m);
  if not shadow_mode then 0
  else begin
    let sh = Shadow.create () in
    let budget = local_budget w local_pct in
    let opts =
      {
        (Driver.tfm_defaults ~local_budget:budget) with
        Driver.route = `Static;
      }
    in
    let o, report =
      Driver.run_trackfm ~blobs:w.blobs ~shadow:sh (build_of w o1) opts
    in
    print_newline ();
    print_string (Shadow.dump sh);
    let classes =
      report.Trackfm.Pipeline.routing.Trackfm.Route_pass.classes
    in
    let checked = ref 0 and confirmed = ref 0 and unchecked = ref 0 in
    let mismatches = ref [] in
    List.iter
      (fun (fname, (s : Tfm_analysis.Access_pattern.site)) ->
        incr checked;
        match
          Shadow.check sh ~func:fname
            ~instr:s.Tfm_analysis.Access_pattern.instr_id
            ~cls:
              (Tfm_analysis.Access_pattern.cls_to_string
                 s.Tfm_analysis.Access_pattern.cls)
        with
        | Shadow.Confirmed -> incr confirmed
        | Shadow.Unchecked -> incr unchecked
        | Shadow.Mismatch msg ->
            mismatches :=
              Printf.sprintf "%s:%%%d %s" fname
                s.Tfm_analysis.Access_pattern.instr_id msg
              :: !mismatches)
      classes;
    print_newline ();
    if o.Driver.ret <> w.expected then begin
      Printf.printf
        "checksum MISMATCH: got %d, expected %d\nshape-shadow FAIL\n"
        o.Driver.ret w.expected;
      1
    end
    else begin
      Printf.printf
        "shadow validation: %d site(s) checked, %d confirmed, %d \
         unchecked, %d mismatch(es)\n"
        !checked !confirmed !unchecked
        (List.length !mismatches);
      List.iter
        (fun l -> Printf.printf "  MISMATCH %s\n" l)
        (List.rev !mismatches);
      if !mismatches = [] then begin
        print_endline "shape-shadow PASS";
        0
      end
      else begin
        print_endline "shape-shadow FAIL";
        1
      end
    end
  end

let list_cmd () =
  List.iter
    (fun w ->
      Printf.printf "%-14s %-45s %s\n" w.wname w.describe
        (Tfm_util.Units.bytes_to_string w.working_set))
    (workloads ());
  0

(* -- cmdliner wiring -- *)

open Term.Syntax

let workload_arg =
  Arg.(
    required
    & opt (some workload_conv) None
    & info [ "w"; "workload" ] ~docv:"NAME" ~doc:"Workload to run (see list).")

let counters_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "counters-json" ] ~docv:"FILE"
        ~doc:
          "Write a deterministic JSON record of the run (inputs, checksum, \
           cycles, all counters sorted by name) to $(docv); the CI fault \
           matrix diffs these against golden files.")

let telemetry_out_term =
  let+ trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record a Chrome trace_event JSON to $(docv) (open in \
             chrome://tracing or ui.perfetto.dev).")
  and+ metrics_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:"Write the sampled counter time-series as CSV to $(docv).")
  and+ sample_interval =
    Arg.(
      value & opt int 250_000
      & info [ "sample-interval" ] ~docv:"CYCLES"
          ~doc:"Simulated cycles between counter snapshots.")
  in
  { trace_file; metrics_file; sample_interval }

let attribution_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "attribution" ] ~docv:"FILE"
        ~doc:
          "Enable causal span tracing and write the per-class critical-path \
           attribution summary (JSON) to $(docv); read it back with report \
           critical-path --from or report slo --from.")

let flight_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight-recorder" ] ~docv:"FILE"
        ~doc:
          "Arm the flight recorder: on the first fault, breaker opening, \
           node crash or checker violation, dump the recent span and event \
           rings to $(docv).")

let run_term =
  let+ w = workload_arg
  and+ spec = Run_spec.term
  and+ tel = telemetry_out_term
  and+ counters_json = counters_json_arg
  and+ attribution = attribution_arg
  and+ flight = flight_arg in
  run_cmd spec w tel ~counters_json ~attribution ~flight

let run_info = Cmd.info "run" ~doc:"Compile and run a workload"

let report_term =
  Term.(const report_cmd $ Run_spec.term $ workload_arg $ telemetry_out_term)

let report_info =
  Cmd.info "report"
    ~doc:
      "Run a workload with telemetry and print guard-site hotspots, latency \
       histograms and counter sparklines (subcommands: critical-path, slo)"

let workload_opt_arg =
  Arg.(
    value
    & opt (some workload_conv) None
    & info [ "w"; "workload" ] ~docv:"NAME"
        ~doc:"Workload to run live (omit when reading --from).")

let from_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "from" ] ~docv:"FILE"
        ~doc:
          "Read a previously exported attribution JSON (run --attribution) \
           instead of running a workload.")

let critical_path_term =
  Term.(const critical_path_cmd $ Run_spec.term $ workload_opt_arg $ from_arg)

let critical_path_info =
  Cmd.info "critical-path"
    ~doc:
      "Per-operation-class latency percentiles and the exact per-category \
       cycle decomposition (compute, guard paths, queueing, retry, failover, \
       eviction), live or from an attribution file"

let slo_spec_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "slo" ] ~docv:"SPEC"
        ~doc:
          "Declarative SLOs: semicolon-separated class:objectives, each \
           objective metric<=limit (metrics p50, p90, p99, p999, mean, max; \
           limits in cycles with k/m/g suffixes), e.g. \
           'lookup:p99<=250k,p50<=40k;get:p999<=2m'.")

let slo_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "slo-file" ] ~docv:"FILE"
        ~doc:
          "Read the SLO rules from $(docv) instead of --slo: one \
           class:objectives spec per line, '#' starts a comment, blank \
           lines ignored; parse errors name the offending line.")

let slo_term =
  Term.(
    const slo_cmd $ Run_spec.term $ workload_opt_arg $ from_arg $ slo_spec_arg
    $ slo_file_arg)

let slo_info =
  Cmd.info "slo"
    ~doc:
      "Evaluate declarative latency SLOs against per-class span percentiles; \
       exit 1 on any violation"

let report_group =
  Cmd.group ~default:report_term report_info
    [ Cmd.v critical_path_info critical_path_term; Cmd.v slo_info slo_term ]

let schema_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "schema" ] ~docv:"FILE" ~doc:"Schema file (JSON).")

let validate_input_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"INPUT" ~doc:"JSON file to validate.")

let validate_term = Term.(const validate_cmd $ schema_arg $ validate_input_arg)

let validate_info =
  Cmd.info "validate"
    ~doc:
      "Validate a JSON file (exported trace, attribution) against a \
       checked-in structural schema"

let list_info = Cmd.info "list" ~doc:"List available workloads"

let sweep_term =
  Term.(const sweep_cmd $ workload_arg $ Run_spec.object_size_arg)

let sweep_info =
  Cmd.info "sweep"
    ~doc:"Sweep local memory and chart TrackFM vs Fastswap slowdowns"

let autotune_term =
  Term.(const autotune_cmd $ workload_arg $ Run_spec.local_pct_arg)

let autotune_info =
  Cmd.info "autotune" ~doc:"Pick the best TrackFM object size by search"

let check_workload_arg =
  Arg.(
    value
    & opt (some workload_conv) None
    & info [ "w"; "workload" ] ~docv:"NAME"
        ~doc:"Check only this workload (default: all).")

let check_term =
  Term.(const check_cmd $ check_workload_arg $ Run_spec.engine_term)

let check_info =
  Cmd.info "check"
    ~doc:
      "Compile every workload and run the guard-coverage verifier and \
       elision-witness re-check over the transformed IR, with and without \
       interprocedural summaries (a dune runtest cell). With --engine \
       compiled, also run each workload under both engines and require \
       identical results and counters (runtime differential)."

let ir_arg =
  Arg.(
    value & flag
    & info [ "ir" ]
        ~doc:"Also dump the IR with call sites annotated by !summary comments.")

let summaries_term =
  Term.(const summaries_cmd $ workload_arg $ Run_spec.o1_arg $ ir_arg)

let summaries_info =
  Cmd.info "summaries"
    ~doc:
      "Print the call graph (SCCs marked), every function's interprocedural \
       summary, and the summary-coverage lint for a workload"

let classify_json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit the classification and routing decisions as JSON with a \
           fixed field order (machine-readable; CI schema-validates and \
           byte-compares it).")

let classify_term =
  Term.(const classify_cmd $ workload_arg $ Run_spec.o1_arg $ classify_json_arg)

let classify_info =
  Cmd.info "classify"
    ~doc:
      "Print the static access-pattern classification (streaming / \
       pointer-chase / mixed / unknown with stride, chain depth, shape, \
       density and rationale) of every may-heap access in a workload, and \
       the hybrid routing decisions a static-mode compile makes"

let shadow_arg =
  Arg.(
    value & flag
    & info [ "shadow" ]
        ~doc:
          "Also execute the statically routed workload under the \
           interpreter with the dynamic depth recorder and cross-check \
           every static class against the observed dependent-load depths \
           (exit 1 on any mismatch).")

let shape_term =
  Term.(
    const shape_cmd $ workload_arg $ Run_spec.o1_arg $ shadow_arg
    $ Run_spec.local_pct_arg)

let shape_info =
  Cmd.info "shape"
    ~doc:
      "Print the interprocedural shape analysis of a workload: per-function \
       chase summaries (return hops, per-argument traversal depths, link \
       stores) and per-allocation-site structure kinds; --shadow runs the \
       dynamic audit"

let serving_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "serving-json" ] ~docv:"FILE"
        ~doc:
          "Write the deterministic machine-readable summary (params echo, \
           per-tenant counts and percentiles, goodput, counters) to \
           $(docv); dune runtest diffs these against ci/golden/.")

let serve_term =
  Term.(
    const serve_cmd $ Run_spec.serving_term $ serving_json_arg $ attribution_arg
    $ flight_arg)

let serve_info =
  Cmd.info "serve"
    ~doc:
      "Run the overload-robust multi-tenant serving scenario: open-loop \
       Poisson/Zipf traffic against a chosen far-memory backend, with \
       admission control, load shedding and graceful degradation"

let main =
  Cmd.group
    (Cmd.info "trackfm_cli" ~version:"1.0"
       ~doc:"TrackFM far-memory reproduction driver")
    [
      Cmd.v run_info run_term;
      Cmd.v serve_info serve_term;
      report_group;
      Cmd.v list_info Term.(const list_cmd $ const ());
      Cmd.v sweep_info sweep_term;
      Cmd.v autotune_info autotune_term;
      Cmd.v check_info check_term;
      Cmd.v summaries_info summaries_term;
      Cmd.v classify_info classify_term;
      Cmd.v shape_info shape_term;
      Cmd.v validate_info validate_term;
    ]

let () = exit (Cmd.eval' main)
