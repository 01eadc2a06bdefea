(* Tests for the PR-2 fault-injection layer: spec parsing, outage
   windows, the retry/backoff/deadline ladder, the circuit breaker, and
   the graceful-degradation paths in the AIFM pool and Fastswap. *)

let cost = Cost_model.default

(* A config that fails most attempts but never outages: exercises the
   retry ladder without making blocking fetches wait out windows. *)
let flaky = { Faults.off with Faults.drop = 0.5 }

(* Pure outage config: every in-window attempt times out, everything
   outside is delivered cleanly. *)
let outage_cfg =
  { Faults.off with Faults.outage_period = 1_000_000; outage_len = 200_000 }

(* A fast policy so ladder tests stay cheap. *)
let quick_policy =
  {
    Net.max_attempts = 3;
    attempt_timeout = 1_000;
    op_deadline = 1_000_000;
    backoff_base = 100;
    backoff_cap = 400;
    fail_fast_cycles = 5;
    probe_interval = 50_000;
  }

(* -- spec grammar -------------------------------------------------------- *)

let test_parse_roundtrip () =
  List.iter
    (fun spec ->
      match Faults.parse spec with
      | Error e -> Alcotest.failf "parse %s: %s" spec e
      | Ok cfg -> (
          match Faults.parse (Faults.to_string cfg) with
          | Error e -> Alcotest.failf "reparse %s: %s" (Faults.to_string cfg) e
          | Ok cfg' ->
              Alcotest.(check bool)
                (spec ^ " round-trips") true (cfg = cfg')))
    [
      "light"; "medium"; "heavy";
      "drop=0.02,timeout=0.01,spike=0.05:40000:1.5,outage=2000000:150000";
      "drop=0.1"; "outage=500000:1000"; "spike=0.2:8000";
      "crash=1500000:250000"; "corrupt=0.01";
      "crash=1000000:50000,corrupt=0.02,drop=0.01";
    ];
  Alcotest.(check bool) "none parses to off" true
    (Faults.parse "none" = Ok Faults.off);
  List.iter
    (fun bad ->
      match Faults.parse bad with
      | Ok _ -> Alcotest.failf "accepted bad spec %s" bad
      | Error _ -> ())
    [
      "bogus"; "drop=1.5"; "drop=x"; "outage=100"; "spike="; "drop";
      "crash=100"; "crash=100:200"; "crash=100:0"; "corrupt=1.0";
      "corrupt=0.1:2";
    ]

(* Rejections must name the offending token and the usage, not a generic
   catch-all: a typo'd key lists the valid keys, a known key with the
   wrong arity gets that key's usage line. *)
let test_parse_error_messages () =
  let expect_error spec needles =
    match Faults.parse spec with
    | Ok _ -> Alcotest.failf "accepted bad spec %s" spec
    | Error msg ->
        List.iter
          (fun needle ->
            let present =
              let nl = String.length needle and ml = String.length msg in
              let rec scan i =
                i + nl <= ml && (String.sub msg i nl = needle || scan (i + 1))
              in
              scan 0
            in
            if not present then
              Alcotest.failf "error for %s lacks %S: %s" spec needle msg)
          needles
  in
  expect_error "timout=0.1" [ "timout"; "valid keys"; "drop" ];
  expect_error "drop=0.1:5" [ "drop needs drop=PROB" ];
  expect_error "spike=0.1" [ "spike needs spike=PROB:CYCLES" ];
  expect_error "crash=5" [ "crash needs crash=PERIOD:DOWNTIME" ];
  expect_error "corrupt=0.1:2" [ "corrupt needs corrupt=RATE" ];
  expect_error "drop" [ "not key=value"; "valid keys" ];
  expect_error "crash=abc:5" [ "bad integer"; "abc" ];
  expect_error "drop=zz" [ "bad float"; "zz" ];
  (* Range errors come from the shared validator with its own wording. *)
  expect_error "crash=100:200" [ "downtime" ];
  expect_error "corrupt=1.0" [ "corrupt" ]

let test_create_validation () =
  Alcotest.(check bool) "off collapses to disabled" false
    (Faults.enabled (Faults.create Faults.off));
  let bad label f =
    match f () with
    | (_ : Faults.t) -> Alcotest.failf "%s: accepted invalid config" label
    | exception Invalid_argument _ -> ()
  in
  bad "drop+timeout >= 1" (fun () ->
      Faults.create { Faults.off with Faults.drop = 0.6; timeout = 0.5 });
  bad "outage_len >= period" (fun () ->
      Faults.create
        { Faults.off with Faults.outage_period = 100; outage_len = 100 })

(* -- outage windows ------------------------------------------------------ *)

let test_outage_windows_deterministic () =
  let f1 = Faults.create ~seed:9 outage_cfg in
  let f2 = Faults.create ~seed:9 outage_cfg in
  for i = 0 to 7 do
    Alcotest.(check bool)
      "same seed, same windows" true
      (Faults.outage_window f1 i = Faults.outage_window f2 i)
  done;
  match Faults.outage_window f1 0 with
  | None -> Alcotest.fail "no window with outages configured"
  | Some (start, stop) ->
      Alcotest.(check int) "window length" outage_cfg.Faults.outage_len
        (stop - start);
      Alcotest.(check bool) "inside" true
        (Faults.in_outage f1 ~now:(start + 1));
      Alcotest.(check bool) "before" false
        (Faults.in_outage f1 ~now:(start - 1));
      Alcotest.(check bool) "after" false (Faults.in_outage f1 ~now:(stop + 1));
      Alcotest.(check (option int)) "outage_end" (Some stop)
        (Faults.outage_end f1 ~now:(start + 1))

(* -- zero cost when disabled --------------------------------------------- *)

let test_disabled_zero_cost () =
  let clock = Clock.create () in
  let net = Net.create cost clock Net.Tcp in
  Net.fetch net ~bytes:4096;
  Alcotest.(check int) "demand fetch = plain transfer"
    (Cost_model.transfer_cycles cost ~latency:cost.Cost_model.tcp_latency
       ~bytes:4096)
    (Clock.cycles clock);
  let before = Clock.cycles clock in
  Net.fetch_prefetched net ~bytes:4096;
  Alcotest.(check int) "prefetched fetch = residual transfer"
    (Cost_model.transfer_cycles cost ~latency:cost.Cost_model.prefetch_hit
       ~bytes:4096)
    (Clock.cycles clock - before);
  List.iter
    (fun c ->
      Alcotest.(check int) ("no fault counter " ^ c) 0 (Clock.get clock c))
    [
      "net.retries"; "net.timeouts"; "net.nacks"; "net.backoff_cycles";
      "net.stall_cycles"; "net.fail_fast"; "net.breaker_opens";
    ]

(* -- retry ladder -------------------------------------------------------- *)

let run_flaky_sequence seed =
  let clock = Clock.create () in
  let net =
    Net.create ~faults:(Faults.create ~seed flaky) ~policy:quick_policy cost
      clock Net.Tcp
  in
  for _ = 1 to 50 do
    Net.fetch net ~bytes:1024
  done;
  (Clock.cycles clock, List.sort compare (Clock.counters clock))

let test_backoff_deterministic () =
  let c1, k1 = run_flaky_sequence 42 in
  let c2, k2 = run_flaky_sequence 42 in
  Alcotest.(check int) "same seed, same cycles" c1 c2;
  Alcotest.(check bool) "same seed, same counters" true (k1 = k2);
  Alcotest.(check bool) "retries happened" true
    (List.mem_assoc "net.retries" k1 && List.assoc "net.retries" k1 > 0)

let test_backoff_bounds () =
  (* Each recorded Retry backoff must lie in [base/2, cap] with the
     doubling schedule: attempt k's backoff <= min(cap, base lsl (k-1)). *)
  let clock = Clock.create () in
  let net =
    Net.create ~faults:(Faults.create ~seed:5 flaky) ~policy:quick_policy cost
      clock Net.Tcp
  in
  let seen = ref 0 in
  Net.on_event net (fun e ->
      match e with
      | Net.Retry { attempt; backoff; _ } ->
          incr seen;
          let cap_k =
            min quick_policy.Net.backoff_cap
              (quick_policy.Net.backoff_base lsl (attempt - 1))
          in
          Alcotest.(check bool) "backoff >= half base" true
            (backoff >= quick_policy.Net.backoff_base / 2);
          Alcotest.(check bool) "backoff <= schedule cap" true
            (backoff <= cap_k)
      | _ -> ());
  for _ = 1 to 50 do
    Net.fetch net ~bytes:1024
  done;
  Alcotest.(check bool) "observed retries" true (!seen > 0)

let test_budget_exhaustion_propagates () =
  let cfg = { Faults.off with Faults.drop = 0.7; timeout = 0.25 } in
  let clock = Clock.create () in
  let net =
    Net.create ~faults:(Faults.create ~seed:3 cfg) ~policy:quick_policy cost
      clock Net.Tcp
  in
  let rec first_error budget =
    if budget = 0 then Alcotest.fail "no ladder exhaustion in 500 ops"
    else
      match Net.try_fetch net ~bytes:512 with
      | Ok () -> first_error (budget - 1)
      | Error e -> e
  in
  (match first_error 500 with
  | Net.Budget_exhausted { attempts } ->
      Alcotest.(check int) "gave up after the full budget"
        quick_policy.Net.max_attempts attempts
  | Net.Unreachable _ ->
      Alcotest.fail "breaker cannot be open before the first exhaustion");
  (* The exhausted ladder trips the breaker: next op fails fast without
     touching the wire. *)
  Alcotest.(check bool) "breaker open" false (Net.remote_available net);
  let timeouts = Clock.get clock "net.timeouts" in
  let nacks = Clock.get clock "net.nacks" in
  (match Net.try_fetch net ~bytes:512 with
  | Error (Net.Unreachable _) -> ()
  | Ok () | Error (Net.Budget_exhausted _) ->
      Alcotest.fail "expected fail-fast while breaker open");
  Alcotest.(check int) "no wire traffic when failing fast" timeouts
    (Clock.get clock "net.timeouts");
  Alcotest.(check int) "no nacks when failing fast" nacks
    (Clock.get clock "net.nacks");
  Alcotest.(check bool) "fail-fast counted" true
    (Clock.get clock "net.fail_fast" > 0)

let test_deadline_respected () =
  (* Attempts nearly always time out; the deadline must stop the ladder
     well before max_attempts. *)
  let cfg = { Faults.off with Faults.timeout = 0.99 } in
  let policy =
    {
      quick_policy with
      Net.max_attempts = 100;
      attempt_timeout = 10_000;
      op_deadline = 25_000;
      backoff_base = 10;
      backoff_cap = 20;
    }
  in
  let clock = Clock.create () in
  let net =
    Net.create ~faults:(Faults.create ~seed:11 cfg) ~policy cost clock Net.Tcp
  in
  let failed_attempts = ref None in
  Net.on_event net (fun e ->
      match e with
      | Net.Fetch_failed { attempts } when !failed_attempts = None ->
          failed_attempts := Some attempts
      | _ -> ());
  let start = Clock.cycles clock in
  (match Net.try_fetch net ~bytes:512 with
  | Error (Net.Budget_exhausted { attempts }) ->
      Alcotest.(check bool) "deadline cut the ladder short" true (attempts < 10)
  | Ok () -> Alcotest.fail "0.99 timeout rate should not deliver on op 1"
  | Error (Net.Unreachable _) -> Alcotest.fail "no outage configured");
  let spent = Clock.cycles clock - start in
  Alcotest.(check bool) "spent bounded by deadline + one attempt" true
    (spent <= policy.Net.op_deadline + policy.Net.attempt_timeout
            + policy.Net.backoff_cap)

(* -- circuit breaker ----------------------------------------------------- *)

let test_breaker_transitions () =
  let faults = Faults.create ~seed:4 outage_cfg in
  let start, stop =
    match Faults.outage_window faults 0 with
    | Some w -> w
    | None -> Alcotest.fail "expected an outage window"
  in
  let clock = Clock.create () in
  let policy = { quick_policy with Net.probe_interval = 10_000 } in
  let net = Net.create ~faults ~policy cost clock Net.Tcp in
  let opened = ref 0 and closed = ref 0 in
  Net.on_event net (fun e ->
      match e with
      | Net.Breaker_opened _ -> incr opened
      | Net.Breaker_closed { opened_at; at } ->
          incr closed;
          Alcotest.(check bool) "span is ordered" true (opened_at < at)
      | _ -> ());
  (* Clean fetch before the window: breaker stays closed. *)
  Net.fetch net ~bytes:1024;
  Alcotest.(check bool) "closed before outage" true (Net.remote_available net);
  (* Step into the window: the ladder exhausts and the breaker opens. *)
  Clock.tick clock (start + 1 - Clock.cycles clock);
  (match Net.try_fetch net ~bytes:1024 with
  | Error (Net.Unreachable _) -> ()
  | Ok () -> Alcotest.fail "fetch delivered inside an outage window"
  | Error (Net.Budget_exhausted _) ->
      Alcotest.fail "outage failures should report Unreachable");
  Alcotest.(check int) "breaker opened once" 1 !opened;
  Alcotest.(check bool) "open during outage" false (Net.remote_available net);
  (* A blocking fetch rides out the window via half-open probes, then the
     breaker closes on the first delivered probe. *)
  Net.fetch net ~bytes:1024;
  Alcotest.(check bool) "closed after recovery" true (Net.remote_available net);
  Alcotest.(check int) "recovery recorded" 1 !closed;
  Alcotest.(check bool) "clock rode out the window" true
    (Clock.cycles clock >= stop);
  Alcotest.(check bool) "probes were sent" true
    (Clock.get clock "net.breaker_probes" > 0)

(* An outage window is [start, stop): a recovery probe landing exactly on
   [stop] must deliver and close the breaker, while one cycle earlier it
   must time out and re-arm the breaker past the window. Guards the
   off-by-one at the window boundary in both Faults.in_outage and the
   half-open probe path. *)
let test_breaker_probe_at_outage_boundary () =
  let window faults =
    match Faults.outage_window faults 0 with
    | Some w -> w
    | None -> Alcotest.fail "expected an outage window"
  in
  (* The boundary itself, straight from the injector. *)
  let faults = Faults.create ~seed:4 outage_cfg in
  let start, stop = window faults in
  Alcotest.(check bool) "stop-1 inside" true
    (Faults.in_outage faults ~now:(stop - 1));
  Alcotest.(check bool) "stop outside (exclusive)" false
    (Faults.in_outage faults ~now:stop);
  Alcotest.(check (option int)) "outage_end at stop-1" (Some stop)
    (Faults.outage_end faults ~now:(stop - 1));
  (* Probe exactly at stop: delivered, breaker closes. *)
  let clock = Clock.create () in
  let net = Net.create ~faults ~policy:quick_policy cost clock Net.Tcp in
  Clock.tick clock (start + 1);
  (match Net.try_fetch net ~bytes:64 with
  | Error (Net.Unreachable { probe_at }) ->
      Alcotest.(check bool) "first probe scheduled inside the window" true
        (probe_at < stop)
  | Ok () -> Alcotest.fail "fetch delivered inside an outage window"
  | Error (Net.Budget_exhausted _) ->
      Alcotest.fail "outage failures should report Unreachable");
  Clock.tick clock (stop - Clock.cycles clock);
  Alcotest.(check int) "clock sits exactly on stop" stop (Clock.cycles clock);
  (match Net.try_fetch net ~bytes:64 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "probe at now = stop must deliver");
  Alcotest.(check bool) "breaker closed by the boundary probe" true
    (Net.remote_available net);
  Alcotest.(check bool) "probe was counted" true
    (Clock.get clock "net.breaker_probes" > 0);
  (* Probe at stop - 1: still in the window, times out, and the breaker
     re-arms with its next probe strictly past the window. *)
  let faults = Faults.create ~seed:4 outage_cfg in
  let clock = Clock.create () in
  let net = Net.create ~faults ~policy:quick_policy cost clock Net.Tcp in
  Clock.tick clock (start + 1);
  (match Net.try_fetch net ~bytes:64 with
  | Error (Net.Unreachable _) -> ()
  | _ -> Alcotest.fail "expected the ladder to open the breaker");
  Clock.tick clock (stop - 1 - Clock.cycles clock);
  (match Net.try_fetch net ~bytes:64 with
  | Error (Net.Unreachable { probe_at }) ->
      Alcotest.(check bool) "failed boundary probe re-arms past stop" true
        (probe_at > stop)
  | Ok () -> Alcotest.fail "probe one cycle before stop must still fail"
  | Error (Net.Budget_exhausted _) ->
      Alcotest.fail "probe failures should report Unreachable");
  Alcotest.(check bool) "breaker still open" false (Net.remote_available net);
  (* A blocking fetch then waits out the re-armed probe and recovers. *)
  Net.fetch net ~bytes:64;
  Alcotest.(check bool) "recovered after the window" true
    (Net.remote_available net);
  Alcotest.(check bool) "recovery happened past stop" true
    (Clock.cycles clock > stop)

(* -- prefetched fetches share the fault path ----------------------------- *)

let test_prefetched_rides_fault_path () =
  let clock = Clock.create () in
  let net =
    Net.create ~faults:(Faults.create ~seed:6 flaky) ~policy:quick_policy cost
      clock Net.Tcp
  in
  for _ = 1 to 50 do
    Net.fetch_prefetched net ~bytes:1024
  done;
  Alcotest.(check int) "all delivered as prefetched" 50
    (Clock.get clock "net.prefetched_fetches");
  Alcotest.(check bool) "prefetched fetches retried" true
    (Clock.get clock "net.retries" > 0)

(* -- graceful degradation ------------------------------------------------ *)

let open_breaker_in_outage net faults clock =
  let start, _ =
    match Faults.outage_window faults 0 with
    | Some w -> w
    | None -> Alcotest.fail "expected an outage window"
  in
  Clock.tick clock (max 0 (start + 1 - Clock.cycles clock));
  match Net.try_fetch net ~bytes:64 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "fetch delivered inside an outage window"

let test_pool_defers_eviction_during_outage () =
  let faults = Faults.create ~seed:8 outage_cfg in
  let clock = Clock.create () in
  let net = Net.create ~faults ~policy:quick_policy cost clock Net.Tcp in
  let pool =
    Aifm.Pool.create cost clock ~net ~object_size:4096 ~local_budget:8192
  in
  open_breaker_in_outage net faults clock;
  Alcotest.(check bool) "breaker open" false (Net.remote_available net);
  (* Three dirty objects against a two-object budget: nothing can be
     written back, so eviction defers instead of raising. *)
  for id = 0 to 2 do
    Aifm.Pool.materialize pool id;
    Aifm.Pool.mark_dirty pool id
  done;
  Alcotest.(check bool) "eviction deferred" true
    (Clock.get clock "aifm.evictions_deferred" > 0);
  Alcotest.(check bool) "budget overshoot absorbed" true
    (Aifm.Pool.local_used pool > Aifm.Pool.local_budget pool)

let test_fastswap_defers_reclaim_during_outage () =
  (* The swap transport runs the default policy (128 Kcycle attempt
     timeouts), so the window must be deep enough that its retry ladder
     exhausts inside it. *)
  let deep_outage =
    { Faults.off with Faults.outage_period = 20_000_000; outage_len = 5_000_000 }
  in
  let faults = Faults.create ~seed:8 deep_outage in
  let clock = Clock.create () in
  let page = Fastswap.Swap.page_size in
  let swap =
    Fastswap.Swap.create ~faults cost clock ~local_budget:(2 * page)
  in
  open_breaker_in_outage (Fastswap.Swap.net swap) faults clock;
  (* Three dirty pages against a two-page budget while the remote is
     down: the kernel cannot push them out, so reclaim defers. *)
  for p = 0 to 2 do
    Fastswap.Swap.access swap ~addr:(p * page) ~size:8 ~write:true
  done;
  Alcotest.(check bool) "reclaim deferred" true
    (Clock.get clock "fastswap.reclaim_deferred" > 0);
  Alcotest.(check int) "overshoot absorbed" 3
    (Fastswap.Swap.present_pages swap);
  Alcotest.(check int) "nothing evicted while down" 0
    (Clock.get clock "fastswap.evictions")

(* -- end-to-end determinism through the runtime -------------------------- *)

let medium =
  match Faults.parse "medium" with Ok cfg -> cfg | Error e -> failwith e

let stream = Workloads.Stream.workload ~n:20_000 Workloads.Stream.Sum

let run_workload_faulted seed =
  let open Workloads in
  let opts =
    {
      (Driver.tfm_defaults ~local_budget:(stream.working_set / 4)) with
      Driver.faults = Faults.create ~seed medium;
    }
  in
  let o, _ = Driver.run_trackfm stream.build opts in
  (o.Driver.ret, o.Driver.cycles, List.sort compare (Clock.counters o.Driver.clock))

let test_runtime_faulted_deterministic () =
  let r1, c1, k1 = run_workload_faulted 13 in
  let r2, c2, k2 = run_workload_faulted 13 in
  Alcotest.(check int) "checksum stable" r1 r2;
  Alcotest.(check int) "checksum correct" (Lazy.force stream.oracle) r1;
  Alcotest.(check int) "cycles stable" c1 c2;
  Alcotest.(check bool) "counters stable" true (k1 = k2);
  Alcotest.(check bool) "faults actually fired" true
    (List.mem_assoc "net.retries" k1 || List.mem_assoc "net.timeouts" k1)

let suite =
  ( "faults",
    [
      Alcotest.test_case "spec round-trip" `Quick test_parse_roundtrip;
      Alcotest.test_case "parse error messages" `Quick
        test_parse_error_messages;
      Alcotest.test_case "create validation" `Quick test_create_validation;
      Alcotest.test_case "outage windows" `Quick
        test_outage_windows_deterministic;
      Alcotest.test_case "disabled zero cost" `Quick test_disabled_zero_cost;
      Alcotest.test_case "backoff deterministic" `Quick
        test_backoff_deterministic;
      Alcotest.test_case "backoff bounds" `Quick test_backoff_bounds;
      Alcotest.test_case "budget exhaustion" `Quick
        test_budget_exhaustion_propagates;
      Alcotest.test_case "deadline respected" `Quick test_deadline_respected;
      Alcotest.test_case "breaker transitions" `Quick test_breaker_transitions;
      Alcotest.test_case "breaker probe at outage boundary" `Quick
        test_breaker_probe_at_outage_boundary;
      Alcotest.test_case "prefetched fault path" `Quick
        test_prefetched_rides_fault_path;
      Alcotest.test_case "pool defers eviction" `Quick
        test_pool_defers_eviction_during_outage;
      Alcotest.test_case "fastswap defers reclaim" `Quick
        test_fastswap_defers_reclaim_during_outage;
      Alcotest.test_case "runtime determinism" `Quick
        test_runtime_faulted_deterministic;
    ] )
