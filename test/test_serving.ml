(* The serving tier's robustness control plane: determinism of the
   whole run (byte-identical result_json), admission bounding the
   accept queue, the off/on overload contrast, accounting conservation,
   graceful degradation under a staggered crash+outage schedule, and
   the flight-recorder dump on the first refused request. *)

open Workloads

let base_tenants ?(skew = 0.99) ?(keys = 4096) ?(budget = 1 lsl 14) () =
  List.map
    (fun t -> { t with Serving.skew })
    (Serving.default_tenants ~n:2 ~keys ~budget)

let base ?skew ?keys ?budget ~rate ~requests ~controls ~faults () =
  {
    Serving.default_params with
    Serving.tenants = base_tenants ?skew ?keys ?budget ();
    rate;
    requests;
    controls;
    faults;
    fault_seed = 1;
  }

let medium =
  match Faults.parse "medium" with
  | Ok f -> f
  | Error e -> failwith ("bad preset: " ^ e)

(* Crash and outage on offset schedules: when the windows coincide a
   dead node turns misses into instant loss (no wire op, no retry
   ladder), so the breaker never opens — the stagger gives both
   behaviors. Same shape as the bench crash table. *)
let crash_outage =
  {
    medium with
    Faults.crash_period = 16_000_000;
    crash_downtime = 3_000_000;
    outage_period = 12_000_000;
    outage_len = 4_000_000;
  }

let json r = Telemetry.Json.to_string (Serving.result_json r)

let test_determinism () =
  let p =
    base ~rate:120.0 ~requests:1_500 ~controls:Serving.default_controls
      ~faults:medium ()
  in
  let a = Serving.run ~spans:true p and b = Serving.run ~spans:true p in
  Alcotest.(check string) "same params, byte-identical JSON" (json a) (json b);
  let c = Serving.run { p with Serving.seed = p.Serving.seed + 1 } in
  Alcotest.(check bool) "different seed, different run" true (json a <> json c)

let test_admission_bounds_queue () =
  let cap = Serving.default_controls.Serving.queue_cap in
  let off =
    Serving.run
      (base ~rate:200.0 ~requests:2_000 ~controls:Serving.open_loop
         ~faults:Faults.off ())
  in
  let on =
    Serving.run
      (base ~rate:200.0 ~requests:2_000 ~controls:Serving.default_controls
         ~faults:Faults.off ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "open loop floods the queue past %d (got %d)" cap
       off.Serving.max_queue)
    true
    (off.Serving.max_queue > cap);
  Alcotest.(check bool)
    (Printf.sprintf "admission keeps the queue under %d (got %d)" cap
       on.Serving.max_queue)
    true
    (on.Serving.max_queue <= cap)

let fleet_p99 r =
  match Telemetry.Histogram.percentile_opt r.Serving.fleet 99.0 with
  | Some v -> v
  | None -> 0

let test_overload_contrast () =
  let deadline = Serving.default_controls.Serving.deadline in
  let off =
    Serving.run
      (base ~rate:200.0 ~requests:2_000 ~controls:Serving.open_loop
         ~faults:Faults.off ())
  in
  let on =
    Serving.run
      (base ~rate:200.0 ~requests:2_000 ~controls:Serving.default_controls
         ~faults:Faults.off ())
  in
  Alcotest.(check bool) "uncontrolled p99 diverges past the deadline" true
    (fleet_p99 off > 4 * deadline);
  Alcotest.(check bool) "controlled p99 stays near the deadline" true
    (fleet_p99 on <= 2 * deadline);
  Alcotest.(check bool) "controls win goodput under overload" true
    (on.Serving.goodput > 2.0 *. off.Serving.goodput)

let test_accounting_conserves () =
  let r =
    Serving.run
      (base ~rate:200.0 ~requests:2_000 ~controls:Serving.default_controls
         ~faults:medium ())
  in
  List.iter
    (fun s ->
      (* Degradation is on, so nothing is shed at the door: every shed
         is a queue expiry of an admitted request. *)
      Alcotest.(check int)
        (s.Serving.tenant.Serving.tn_name ^ ": every arrival decided once")
        s.Serving.offered
        (s.Serving.admitted + s.Serving.rejected + s.Serving.throttled);
      Alcotest.(check int)
        (s.Serving.tenant.Serving.tn_name ^ ": admitted end as reply or shed")
        s.Serving.admitted
        (s.Serving.completed + s.Serving.shed);
      Alcotest.(check bool) "good within completed" true
        (s.Serving.good <= s.Serving.completed))
    r.Serving.stats;
  let total f = List.fold_left (fun a s -> a + f s) 0 r.Serving.stats in
  Alcotest.(check int) "fleet histogram holds every completion"
    (total (fun s -> s.Serving.completed))
    (Telemetry.Histogram.count r.Serving.fleet)

let test_degradation_under_outage () =
  let r =
    Serving.run
      (base ~skew:0.6 ~rate:110.0 ~requests:2_000
         ~controls:Serving.default_controls ~faults:crash_outage ())
  in
  let degraded =
    List.fold_left (fun a s -> a + s.Serving.degraded) 0 r.Serving.stats
  in
  Alcotest.(check bool) "breaker opened during the outage" true
    (Clock.get r.Serving.clock "net.breaker_opens" >= 1);
  Alcotest.(check bool) "stale serves while the breaker is open" true
    (degraded > 0);
  Alcotest.(check int) "stale counter matches per-tenant degraded" degraded
    (Clock.get r.Serving.clock "serving.stale")

let test_flight_dump_on_first_refusal () =
  let path = Filename.temp_file "tfm-serving-flight" ".json" in
  let r =
    Serving.run
      ~flight:(path, [ ("test", Telemetry.Json.String "serving") ])
      (base ~rate:200.0 ~requests:1_500 ~controls:Serving.default_controls
         ~faults:Faults.off ())
  in
  Alcotest.(check bool) "overload produced refusals" true
    (List.exists (fun s -> s.Serving.rejected > 0) r.Serving.stats);
  Alcotest.(check (option string)) "first refusal fired the flight recorder"
    (Some path)
    (Telemetry.Sink.flight_dumped r.Serving.sink);
  Alcotest.(check bool) "dump is on disk" true (Sys.file_exists path);
  Sys.remove path

let test_invalid_params_rejected () =
  let check name p =
    try
      ignore (Serving.run p);
      Alcotest.fail (name ^ " accepted")
    with Invalid_argument _ -> ()
  in
  let ok =
    base ~rate:50.0 ~requests:100 ~controls:Serving.default_controls
      ~faults:Faults.off ()
  in
  check "rate 0" { ok with Serving.rate = 0.0 };
  check "rate nan" { ok with Serving.rate = Float.nan };
  check "rate inf" { ok with Serving.rate = Float.infinity };
  List.iter
    (fun skew ->
      check
        (Printf.sprintf "skew %g" skew)
        {
          ok with
          Serving.tenants =
            List.map (fun t -> { t with Serving.skew }) ok.Serving.tenants;
        })
    [ 0.0; -1.0; Float.nan; Float.infinity ];
  check "no requests" { ok with Serving.requests = 0 };
  check "no connections" { ok with Serving.connections = 0 };
  check "no tenants" { ok with Serving.tenants = [] };
  check "value size not dividing the page"
    { ok with Serving.value_size = 48 }

let suite =
  ( "serving",
    [
      Alcotest.test_case "deterministic result" `Quick test_determinism;
      Alcotest.test_case "admission bounds queue" `Quick
        test_admission_bounds_queue;
      Alcotest.test_case "overload off/on contrast" `Quick
        test_overload_contrast;
      Alcotest.test_case "accounting conserves" `Quick
        test_accounting_conserves;
      Alcotest.test_case "stale serves under outage" `Quick
        test_degradation_under_outage;
      Alcotest.test_case "flight dump on first refusal" `Quick
        test_flight_dump_on_first_refusal;
      Alcotest.test_case "invalid params" `Quick test_invalid_params_rejected;
    ] )
