(* Tests for the causal span tracker (PR-6): lifecycle and frame nesting
   across Shenango context switches, spans crossing the Net retry ladder
   and a cluster failover, the sums-to-wall-clock invariant, and the
   determinism of the flight-recorder dump under a fixed fault seed. *)

let cost = Cost_model.default

let counter clock name =
  match List.assoc_opt name (Clock.counters clock) with
  | Some v -> v
  | None -> 0

let cat_of st c =
  st.Telemetry.Span.cat_totals.(Telemetry.Span.cat_index c)

let sum_cats st = Array.fold_left ( + ) 0 st.Telemetry.Span.cat_totals

(* Every class's category decomposition must sum exactly to its
   wall-clock total — the tracker's core invariant, asserted wherever a
   test gets its hands on a tracker. *)
let check_invariant sp =
  Alcotest.(check int) "no violations" 0 (Telemetry.Span.violations sp);
  Alcotest.(check string) "no violation note" ""
    (Telemetry.Span.violation_note sp);
  List.iter
    (fun (cls, st) ->
      Alcotest.(check int)
        (Printf.sprintf "class %d cats sum to wall" cls)
        (Telemetry.Histogram.total st.Telemetry.Span.wall_hist)
        (sum_cats st))
    (Telemetry.Span.classes sp)

(* -- lifecycle across scheduler context switches ------------------------- *)

let test_spans_across_scheduler () =
  let sched = Shenango.Sched.create () in
  let sp =
    Telemetry.Span.create
      ~classes:[ (0, "a"); (1, "b") ]
      ~now:(fun () -> Shenango.Sched.time sched)
      ()
  in
  Shenango.Sched.set_switch_hooks sched
    (Some
       {
         Shenango.Sched.save = (fun () -> Telemetry.Span.save sp);
         restore =
           (fun ~token ~queued -> Telemetry.Span.restore sp token ~queued);
       });
  (* Single core, two tasks:
       A: work 100; [guard_slow: block 50]; work 100
       B: work 80; block 30; work 40
     Timeline: A runs 0-100, blocks to 150; B runs 100-180; A is queued
     150-180 (inside its still-open guard frame), resumes 180-280; B is
     queued 210-280, resumes 280-320. *)
  Shenango.Sched.spawn sched (fun () ->
      Telemetry.Span.op_begin sp ~cls:0;
      Shenango.Sched.work 100;
      Telemetry.Span.enter sp Telemetry.Span.Guard_slow;
      Shenango.Sched.block 50;
      Telemetry.Span.exit sp;
      Shenango.Sched.work 100;
      Telemetry.Span.op_end sp);
  Shenango.Sched.spawn sched (fun () ->
      Telemetry.Span.op_begin sp ~cls:1;
      Shenango.Sched.work 80;
      Shenango.Sched.block 30;
      Shenango.Sched.work 40;
      Telemetry.Span.op_end sp);
  let total = Shenango.Sched.run sched in
  Alcotest.(check int) "completion time" 320 total;
  Alcotest.(check int) "both spans closed" 2 (Telemetry.Span.spans_closed sp);
  check_invariant sp;
  (match List.assoc_opt 0 (Telemetry.Span.classes sp) with
  | None -> Alcotest.fail "class 0 missing"
  | Some st ->
      Alcotest.(check int) "A wall" 280
        (Telemetry.Histogram.total st.Telemetry.Span.wall_hist);
      (* The guard frame stayed open across save/restore: the block is
         its exclusive time, the ready-but-waiting stretch is queueing,
         not guard time. *)
      Alcotest.(check int) "A guard_slow = block" 50
        (cat_of st Telemetry.Span.Guard_slow);
      Alcotest.(check int) "A queueing" 30 (cat_of st Telemetry.Span.Queueing);
      Alcotest.(check int) "A compute" 200
        (cat_of st Telemetry.Span.Compute));
  match List.assoc_opt 1 (Telemetry.Span.classes sp) with
  | None -> Alcotest.fail "class 1 missing"
  | Some st ->
      Alcotest.(check int) "B wall" 220
        (Telemetry.Histogram.total st.Telemetry.Span.wall_hist);
      Alcotest.(check int) "B queueing" 70 (cat_of st Telemetry.Span.Queueing);
      (* B's block is not inside any frame: it stays compute. *)
      Alcotest.(check int) "B compute" 150 (cat_of st Telemetry.Span.Compute)

(* -- spans crossing the Net retry ladder --------------------------------- *)

let flaky = { Faults.off with Faults.drop = 0.5 }

let retry_run ~flight_path () =
  let clock = Clock.create () in
  let sink =
    Telemetry.Sink.recording ~trace:false ~series_interval:0 ~spans:true
      ~op_classes:[ (0, "fetch") ] clock
  in
  Telemetry.Sink.set_flight_recorder sink ~path:flight_path
    ~meta:[ ("workload", Telemetry.Json.String "unit") ];
  let net = Net.create ~faults:(Faults.create ~seed:11 flaky) cost clock Tcp in
  Telemetry.Sink.attach_net sink net;
  for _ = 1 to 20 do
    Telemetry.Sink.op_begin sink ~cls:0;
    Net.fetch net ~bytes:4096;
    Telemetry.Sink.op_end sink
  done;
  (clock, sink)

let test_span_crosses_retry_ladder () =
  let flight_path = Filename.temp_file "tfm-flight" ".json" in
  let clock, sink = retry_run ~flight_path () in
  Alcotest.(check bool) "fault schedule produced retries" true
    (counter clock "net.retries" > 0);
  let sp = Option.get (Telemetry.Sink.spans sink) in
  check_invariant sp;
  (match List.assoc_opt 0 (Telemetry.Span.classes sp) with
  | None -> Alcotest.fail "class 0 missing"
  | Some st ->
      Alcotest.(check int) "all fetches spanned" 20 st.Telemetry.Span.ops;
      Alcotest.(check bool) "retry cycles attributed" true
        (cat_of st Telemetry.Span.Retry > 0);
      (* Backoff is fault-path time, not fetch time: the retry share
         must not swallow the whole span. *)
      Alcotest.(check bool) "compute (wire) cycles remain" true
        (cat_of st Telemetry.Span.Compute > 0));
  (* The first retry armed and fired the flight recorder. *)
  Alcotest.(check (option string)) "flight recorder fired"
    (Some flight_path)
    (Telemetry.Sink.flight_dumped sink);
  Sys.remove flight_path

(* -- spans crossing a cluster failover ----------------------------------- *)

let test_span_crosses_failover () =
  let clock = Clock.create () in
  let store = Memstore.create () in
  let cluster =
    Cluster.create ~seed:7 ~clock ~store ~replicas:1 ~ack:1
      ~crash_period:1_000_000 ~crash_downtime:300_000 ~corrupt:0.0 ()
  in
  let sink =
    Telemetry.Sink.recording ~trace:false ~series_interval:0 ~spans:true
      ~op_classes:[ (0, "get") ] clock
  in
  let net = Net.create ~cluster cost clock Tcp in
  Telemetry.Sink.attach_net sink net;
  let key = 8192 in
  Memstore.store64 store ~addr:key 42L;
  Memstore.store64 store ~addr:(key + 8) 43L;
  Net.writeback_object net ~key ~bytes:16;
  (* Walk the clock into the sole node's first crash window: the copy is
     wiped, the replica ladder comes up empty and the loss declaration
     (a Failover-scoped round trip) lands inside the open span. *)
  (match Cluster.crash_window cluster ~node:0 0 with
  | None -> Alcotest.fail "crash schedule empty"
  | Some (start, _) ->
      Clock.tick clock (start + 1 - Clock.monotonic clock));
  Telemetry.Sink.op_begin sink ~cls:0;
  Net.fetch_object net ~key ~bytes:16;
  Telemetry.Sink.op_end sink;
  Alcotest.(check int) "object lost" 1 (counter clock "net.lost_objects");
  let sp = Option.get (Telemetry.Sink.spans sink) in
  check_invariant sp;
  match List.assoc_opt 0 (Telemetry.Span.classes sp) with
  | None -> Alcotest.fail "class 0 missing"
  | Some st ->
      Alcotest.(check bool) "failover cycles attributed" true
        (cat_of st Telemetry.Span.Failover > 0)

(* -- end to end: intrinsics through the interpreter ---------------------- *)

let test_workload_spans_end_to_end () =
  let p = Workloads.Hashmap.default_params ~keys:3_000 ~lookups:4_000 in
  let w = Workloads.Hashmap.workload p in
  let sink = ref Telemetry.Sink.nop in
  let telemetry clock =
    let s =
      Telemetry.Sink.recording ~trace:false ~series_interval:0 ~spans:true
        ~op_classes:w.op_classes clock
    in
    sink := s;
    s
  in
  let opts =
    Workloads.Driver.tfm_defaults ~local_budget:(max 65536 (w.working_set / 4))
  in
  let o, _ =
    Workloads.Driver.run_trackfm ~blobs:(Lazy.force w.blobs) ~telemetry w.build
      opts
  in
  Alcotest.(check int) "checksum" (Lazy.force w.oracle) o.Workloads.Driver.ret;
  let sp = Option.get (Telemetry.Sink.spans !sink) in
  check_invariant sp;
  match List.assoc_opt 0 (Telemetry.Span.classes sp) with
  | None -> Alcotest.fail "lookup class missing"
  | Some st ->
      (* One span per !op_begin/!op_end pair: exactly the lookup count. *)
      Alcotest.(check int) "one span per lookup" p.Workloads.Hashmap.lookups
        st.Telemetry.Span.ops;
      Alcotest.(check bool) "guard slow path attributed" true
        (cat_of st Telemetry.Span.Guard_slow > 0)

(* -- flight recorder determinism ----------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_flight_recorder_deterministic () =
  let dump () =
    let path = Filename.temp_file "tfm-flight" ".json" in
    let _, sink = retry_run ~flight_path:path () in
    Alcotest.(check bool) "dumped" true
      (Telemetry.Sink.flight_dumped sink <> None);
    let s = read_file path in
    Sys.remove path;
    s
  in
  let a = dump () and b = dump () in
  Alcotest.(check bool) "dump is non-trivial" true (String.length a > 100);
  Alcotest.(check bool) "byte-identical across runs" true (a = b)

let suite =
  ( "span",
    [
      Alcotest.test_case "spans across scheduler switches" `Quick
        test_spans_across_scheduler;
      Alcotest.test_case "span crosses retry ladder" `Quick
        test_span_crosses_retry_ladder;
      Alcotest.test_case "span crosses cluster failover" `Quick
        test_span_crosses_failover;
      Alcotest.test_case "workload spans end to end" `Quick
        test_workload_spans_end_to_end;
      Alcotest.test_case "flight recorder deterministic" `Quick
        test_flight_recorder_deterministic;
    ] )
