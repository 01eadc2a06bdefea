(* bench/perf: TrackFM end to end and per layer, one workload per process.

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
              [--quick] [--spans FILE]

   --trace 0 prints the end-to-end metrics: host CPU time of set-up, of a
   whole run and of the compiler, scaled to the reference host's speed
   (Host_speed), simulator throughput and peak memory, and the paper's
   simulated cycles, network bytes and code growth.
   --trace 1 prints the per-layer metrics of a separate traced run.
   Human-readable lines come first; the last line of stdout is one JSON
   object {correct, attempted, failed, metrics}. Any failed check is named
   on stderr and makes the exit code nonzero. README.md has the protocol. *)

let default_seed = 42

type metric = { name : string; value : float; unit : string; note : string }

let metric ?(note = "") name unit value = { name; value; unit; note }
let median_of l = Printf.sprintf "median of %d" (List.length l)

(* -- end to end (untraced, CPU seconds) ----------------------------------- *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> find ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let untraced ~quick ~until ~seed (w : Suite.t) =
  let open Harness in
  let now = Sys.time in
  let prog = w.program ~quick ~seed in
  let blobs, oracle, _ = setup ~now prog in
  let speed =
    if quick then Host_speed.assumed else Host_speed.sample ~now
  in
  let run = checked_run ~now ~speed w prog ~blobs ~oracle in
  match run "warm-up run" with
  | None -> []
  | Some (reference, _) ->
      (* The high-water mark of one set-up and one run, before repetition
         makes it depend on how many rounds fit in the measuring window. *)
      let peak_rss_mb = peak_rss_mb () in
      (* The compiler alone: a fresh module, [Driver]'s configuration and
         the profile its pre-run computes. *)
      let config =
        Suite.pipeline_config (Suite.opts w prog)
          (Driver.profile_of ~engine:w.engine ~blobs prog.build)
      in
      let compile label =
        attempt label (fun () ->
            let m = prog.build () in
            Gc.compact ();
            let t0 = now () in
            let report = Trackfm.Pipeline.run config m in
            let dt = now () -. t0 in
            let growth = Trackfm.Pipeline.code_growth report in
            ( dt,
              if growth = reference.code_growth then []
              else
                [ Printf.sprintf "code_growth %.17g, Driver.run_trackfm gave %.17g" growth
                    reference.code_growth ] ))
      in
      (* Each round is one run, three compiles and 50 ms of set-ups, so
         every timing samples the whole measuring window: the host's speed
         drifts over seconds, and a timing taken in one burst would see
         only one part of it. Every timing is scaled to the reference
         host's speed: a run's phases by the host speed sampled around
         each, the compiles and set-ups by the speed sampled over the run
         just before them. *)
      let rounds =
        repeat ~until ~min_runs:(if quick then 2 else 5) (fun i ->
            let label what j =
              Printf.sprintf "round %d %s %d" (i + 1) what (j + 1)
            in
            match run ~reference (label "run" 0) with
            | None -> None
            | Some (_, t) ->
                let scale = List.map (fun s -> s *. t.factor) in
                let compiles =
                  List.filter_map
                    (fun j -> compile (label "compile" j))
                    [ 0; 1; 2 ]
                in
                let setups =
                  repeat
                    ~until:(Unix.gettimeofday () +. if quick then 0.0 else 0.05)
                    ~min_runs:1
                    (fun j ->
                      resetup ~now ~blobs ~oracle prog (label "set-up" j))
                in
                Some (t, scale compiles, scale (List.map setup_s setups)))
      in
      let times = List.map (fun (t, _, _) -> t) rounds in
      let runs = List.map (fun t -> t.scaled) times in
      let compiles = List.concat_map (fun (_, c, _) -> c) rounds in
      let setups = List.concat_map (fun (_, _, s) -> s) rounds in
      if runs = [] || compiles = [] || setups = [] then []
      else
        let exec_s = median (List.map (fun p -> p.exec_s) runs) in
        let net =
          counter reference "net.bytes_in" + counter reference "net.bytes_out"
        in
        [
          metric "setup_s" "s" (median setups) ~note:(median_of setups);
          metric "total_s" "s" (median (List.map total_s runs))
            ~note:
              (Printf.sprintf
                 "%s; unscaled %.4g s, host speed factor %.3g (medians)"
                 (median_of runs)
                 (median (List.map (fun t -> total_s t.raw) times))
                 (median (List.map (fun t -> t.factor) times)));
          metric "compile_s" "s" (median compiles) ~note:(median_of compiles);
          metric "sim_mips" "Minstr/s"
            (float_of_int reference.instrs /. exec_s /. 1e6)
            ~note:
              (Printf.sprintf "%d instrs over the %s execute time"
                 reference.instrs (median_of runs));
          metric "sim_cycles" "cycles" (float_of_int reference.cycles);
          metric "net_bytes" "bytes" (float_of_int net);
          metric "code_growth" "ratio" reference.code_growth;
          metric "peak_rss_mb" "MiB" peak_rss_mb
            ~note:"VmHWM after the warm-up run";
          metric "pass_rate" "ratio"
            (float_of_int (!attempted - !failed) /. float_of_int !attempted)
            ~note:
              (Printf.sprintf "%d of %d runs, compiles and set-ups failed"
                 !failed !attempted);
        ]

(* -- per layer (traced, monotonic seconds) -------------------------------- *)

(* Clock counters reported as they are, with their units. *)
let counters =
  [ ("tfm.fast_guards", "count"); ("tfm.slow_guards", "count");
    ("tfm.boundary_checks", "count"); ("aifm.demand_fetches", "count");
    ("aifm.evictions", "count"); ("net.fetches", "count");
    ("net.prefetched_fetches", "count"); ("aifm.writebacks", "count");
    ("net.writebacks", "count"); ("net.bytes_in", "bytes");
    ("net.bytes_out", "bytes"); ("tfm.page_accesses", "count");
    ("fastswap.major_faults", "count"); ("fastswap.evictions", "count") ]

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let traced ~quick ~until ~seed (w : Suite.t) =
  let open Harness in
  let now = Traced.now in
  let prog = w.program ~quick ~seed in
  let blobs, oracle, first = setup ~now prog in
  let setups =
    first
    :: repeat
         ~until:(Unix.gettimeofday () +. if quick then 0.0 else 1.0)
         ~min_runs:(if quick then 1 else 4)
         (fun i ->
           resetup ~now ~blobs ~oracle prog (Printf.sprintf "set-up %d" (i + 2)))
  in
  List.iteri
    (fun rep s ->
      let span name a b = Traced.span ~rep ~layer:"workloads" name a b in
      let t1 = s.start +. s.input_s in
      let t2 = t1 +. s.oracle_s in
      span "input" s.start t1;
      span "oracle" t1 t2;
      span "build" t2 (t2 +. s.build_s))
    setups;
  let untraced =
    checked_run ~now ~speed:Host_speed.assumed w prog ~blobs ~oracle
  in
  match untraced "warm-up run" with
  | None -> []
  | Some (reference, _) ->
      let primitives = Traced.primitives ~quick in
      (* Untraced and traced runs alternate so both see the same machine. *)
      let pairs =
        repeat ~until ~min_runs:(if quick then 2 else 5) (fun i ->
            let u =
              untraced ~reference (Printf.sprintf "untraced run %d" (i + 1))
            in
            let t =
              attempt (Printf.sprintf "traced run %d" (i + 1)) (fun () ->
                  let obs, report, layer = Traced.run ~rep:i w prog blobs in
                  ((report, layer), differences ~oracle ~reference obs))
            in
            match (u, t) with
            | Some (_, times), Some t -> Some (times.raw.exec_s, t)
            | _ -> None)
      in
      if pairs = [] then []
      else
        let traced = List.map snd pairs in
        let report = fst (List.hd traced) in
        let layer name =
          median (List.map (fun (_, l) -> List.assoc name l) traced)
        in
        let counter = counter reference in
        let e = report.Trackfm.Pipeline.elision and g = report.guards in
        let int name unit n = metric name unit (float_of_int n) in
        let setup_median name f =
          metric name "s" (median (List.map f setups)) ~note:(median_of setups)
        in
        [
          setup_median "workloads.input_s" (fun s -> s.input_s);
          setup_median "workloads.oracle_s" (fun s -> s.oracle_s);
          setup_median "workloads.build_s" (fun s -> s.build_s);
        ]
        @ List.map
            (fun (name, _) ->
              let unit =
                if String.ends_with ~suffix:"_s" name then "s" else "count"
              in
              metric name unit (layer name) ~note:(median_of traced))
            (snd (List.hd traced))
        @ [
            int "compile.ir_instrs_before" "instrs" report.ir_instrs_before;
            int "compile.ir_instrs_after" "instrs" report.ir_instrs_after;
            int "compile.guards" "count" (g.guarded_loads + g.guarded_stores);
            int "compile.guards_elided" "count"
              (e.elided_same + e.elided_congruent + e.elided_range);
            int "compile.chunk_sites" "count" report.chunks.chunk_sites;
            int "compile.sites_routed" "count" report.routing.routed;
            int "engine.instrs" "instrs" reference.instrs;
            metric "runtime.fast_guard_ratio" "ratio"
              (ratio (counter "tfm.fast_guards")
                 (counter "tfm.fast_guards" + counter "tfm.slow_guards"));
            metric "net.prefetch_ratio" "ratio"
              (ratio (counter "net.prefetched_fetches") (counter "net.fetches"));
          ]
        @ List.map (fun (name, unit) -> int name unit (counter name)) counters
        @ List.map
            (fun (name, ns) -> metric name "ns" ns ~note:"Bechamel OLS")
            primitives
        @ [
            metric "trace.overhead" "ratio"
              ((layer "engine.run_s" /. median (List.map fst pairs)) -. 1.0)
              ~note:"traced over untraced median engine.run_s, minus 1";
          ]

(* -- command line ---------------------------------------------------------- *)

let fail_usage msg =
  Printf.eprintf "bench/perf: %s\n" msg;
  exit 2

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 30 in
  let trace = ref 0 and quick = ref false and spans = ref "" in
  let names = String.concat ", " (List.map (fun w -> w.Suite.name) Suite.all) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of: " ^ names);
      ("--seed", Arg.Set_int seed, "N seed of the Zipf trace (default 42)");
      ("--seconds", Arg.Set_int seconds, "S measure for S seconds (default 30)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1)");
      ("--quick", Arg.Set quick, " tiny sizes and 2 runs (smoke test)");
      ("--spans", Arg.Set_string spans, "FILE where --trace 1 writes its spans");
    ]
    (fun a -> fail_usage ("unexpected argument " ^ a))
    "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let w =
    match Suite.find !workload with
    | Some w -> w
    | None ->
        fail_usage
          (Printf.sprintf "unknown workload %S (one of: %s)" !workload names)
  in
  if !trace <> 0 && !trace <> 1 then fail_usage "--trace takes 0 or 1";
  if !seconds < 0 then fail_usage "--seconds must be >= 0";
  (* The window covers set-up and warm-up too, so a process takes about
     [--seconds] however slow its workload. *)
  let until =
    Unix.gettimeofday () +. if !quick then 0.0 else float_of_int !seconds
  in
  Printf.printf "bench/perf workload=%s engine=%s seed=%d trace=%d%s\n%!"
    w.name (Engine.to_string w.engine) !seed !trace
    (if !quick then " quick" else "");
  let metrics =
    if !trace = 0 then untraced ~quick:!quick ~until ~seed:!seed w
    else
      let spans_file =
        if !spans <> "" then !spans
        else begin
          List.iter
            (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
            [ "_build"; "_build/perf" ];
          Printf.sprintf "_build/perf/%s-seed%d.spans.jsonl" w.name !seed
        end
      in
      let metrics = traced ~quick:!quick ~until ~seed:!seed w in
      Traced.write_spans ~workload:w.name spans_file;
      metrics
  in
  List.iter
    (fun m ->
      Printf.printf "  %-28s %16.6g %-9s %s\n" m.name m.value m.unit m.note)
    metrics;
  let correct = !Harness.failed = 0 && metrics <> [] in
  let open Telemetry.Json in
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool correct);
            ("attempted", Int !Harness.attempted);
            ("failed", Int !Harness.failed);
            ( "metrics",
              Obj
                (List.map
                   (fun m ->
                     ( m.name,
                       Obj [ ("value", Float m.value); ("unit", String m.unit) ] ))
                   metrics) );
          ]));
  exit (if correct then 0 else 1)
