(* Tests for the replicated remote-memory tier: crash-window schedules,
   ack/lag writeback semantics, observable data loss at replicas=1,
   survival via failover + resync at replicas=3, transit-corruption
   detection/repair, stale-shadow invalidation, and the zero-cost gate
   that keeps the single-server model bit-identical. *)

let cost = Cost_model.default

let mk_cluster ?(seed = 7) ?(replicas = 3) ?(ack = 2) ?(crash_period = 0)
    ?(crash_downtime = 0) ?(corrupt = 0.0) () =
  let clock = Clock.create () in
  let store = Memstore.create () in
  let c =
    Cluster.create ~seed ~clock ~store ~replicas ~ack ~crash_period
      ~crash_downtime ~corrupt ()
  in
  (clock, store, c)

(* Two 8-byte words with the top bit set: a 63-bit truncating mover or
   checksum would destroy them (the sign bit of stored doubles). *)
let key = 8192
let size = 16
let w0 = 0x8000_0000_0000_0001L
let w1 = Int64.neg 3L

let seed_object store =
  Memstore.store64 store ~addr:key w0;
  Memstore.store64 store ~addr:(key + 8) w1

let object_intact store =
  Memstore.load64 store ~addr:key = w0
  && Memstore.load64 store ~addr:(key + 8) = w1

(* -- zero-cost gate ------------------------------------------------------ *)

let test_create_opt_gate () =
  let clock = Clock.create () in
  let store = Memstore.create () in
  let opt ~replicas ~ack faults =
    Cluster.create_opt ~seed:3 ~clock ~store ~replicas ~ack ~faults ()
  in
  let crashy =
    { Faults.off with Faults.crash_period = 1_000_000; crash_downtime = 100_000 }
  in
  Alcotest.(check bool) "replicas=1, no faults: no cluster" true
    (opt ~replicas:1 ~ack:1 Faults.off = None);
  Alcotest.(check bool) "replicas=1 + outage only: still no cluster" true
    (opt ~replicas:1 ~ack:1
       { Faults.off with Faults.outage_period = 1_000_000; outage_len = 1_000 }
    = None);
  Alcotest.(check bool) "replicas=3 forces a cluster" true
    (opt ~replicas:3 ~ack:2 Faults.off <> None);
  Alcotest.(check bool) "crash faults force a cluster even at replicas=1" true
    (opt ~replicas:1 ~ack:1 crashy <> None);
  Alcotest.(check bool) "corrupt faults force a cluster" true
    (opt ~replicas:1 ~ack:1 { Faults.off with Faults.corrupt = 0.01 } <> None)

(* -- crash-window schedule ----------------------------------------------- *)

let test_crash_windows_staggered () =
  let period = 1_000_000 and downtime = 100_000 in
  let _, _, c =
    mk_cluster ~seed:7 ~crash_period:period ~crash_downtime:downtime ()
  in
  let windows =
    List.concat_map
      (fun node ->
        List.filter_map
          (fun i -> Cluster.crash_window c ~node i)
          [ 0; 1; 2; 3 ])
      [ 0; 1; 2 ]
  in
  Alcotest.(check int) "every (node, era) has a window" 12
    (List.length windows);
  List.iter
    (fun (start, stop) ->
      Alcotest.(check int) "window length = downtime" downtime (stop - start);
      Alcotest.(check bool) "window starts in the future" true (start > 0))
    windows;
  (* Stagger: sorted by start, no two windows overlap — a 3-replica
     object always has a healthy holder. *)
  let sorted = List.sort compare windows in
  let rec disjoint = function
    | (_, stop) :: ((start', _) :: _ as rest) ->
        Alcotest.(check bool) "windows pairwise disjoint" true (stop <= start');
        disjoint rest
    | _ -> ()
  in
  disjoint sorted;
  (* Pure in (seed, node, index). *)
  let _, _, c' =
    mk_cluster ~seed:7 ~crash_period:period ~crash_downtime:downtime ()
  in
  List.iter
    (fun node ->
      Alcotest.(check bool) "same seed, same windows" true
        (Cluster.crash_window c ~node 0 = Cluster.crash_window c' ~node 0))
    [ 0; 1; 2 ];
  let _, _, c'' =
    mk_cluster ~seed:8 ~crash_period:period ~crash_downtime:downtime ()
  in
  Alcotest.(check bool) "different seed moves some window" true
    (List.exists
       (fun node ->
         Cluster.crash_window c ~node 0 <> Cluster.crash_window c'' ~node 0)
       [ 0; 1; 2 ])

(* -- writeback: ack / lag / visibility ----------------------------------- *)

let test_writeback_ack_lag () =
  let clock, store, c = mk_cluster ~replicas:3 ~ack:2 () in
  seed_object store;
  let wb = Cluster.writeback c ~key ~size in
  Alcotest.(check int) "all three replicas written" 3 wb.Cluster.written;
  Alcotest.(check int) "one beyond-ack copy lags" 1 wb.Cluster.lagged;
  Alcotest.(check int) "nobody down" 0 wb.Cluster.skipped;
  Alcotest.(check bool) "directory knows the object" true
    (Cluster.has_object c ~key);
  let cands = Cluster.read_candidates c ~key in
  Alcotest.(check int) "only the ack copies are visible" 2 (List.length cands);
  Alcotest.(check bool) "primary served first" true
    (List.hd cands = Cluster.primary c ~key);
  (match Cluster.earliest_pending c ~key with
  | None -> Alcotest.fail "a lagged copy must be pending"
  | Some at ->
      Alcotest.(check bool) "pending lands in the future" true
        (at > Clock.monotonic clock);
      Clock.tick clock (at - Clock.monotonic clock));
  Alcotest.(check int) "lagged copy visible after the lag" 3
    (List.length (Cluster.read_candidates c ~key));
  Alcotest.(check bool) "nothing pending any more" true
    (Cluster.earliest_pending c ~key = None)

(* -- exact 64-bit round-trip through a replica ---------------------------- *)

let test_deliver_roundtrip_exact () =
  let _, store, c = mk_cluster ~replicas:2 ~ack:2 () in
  seed_object store;
  ignore (Cluster.writeback c ~key ~size);
  (match Cluster.deliver c ~key ~node:(Cluster.primary c ~key) with
  | `Delivered -> ()
  | `Stale | `Lost -> Alcotest.fail "fresh writeback cannot be stale or lost");
  Alcotest.(check bool)
    "bit 63 survives the copy (no 63-bit truncation)" true
    (object_intact store)

(* -- observable loss at replicas=1 ---------------------------------------- *)

let test_single_node_loss () =
  let clock, store, c =
    mk_cluster ~replicas:1 ~ack:1 ~crash_period:1_000_000
      ~crash_downtime:100_000 ()
  in
  let _, stop =
    match Cluster.crash_window c ~node:0 0 with
    | Some w -> w
    | None -> Alcotest.fail "crash schedule configured but no window"
  in
  seed_object store;
  ignore (Cluster.writeback c ~key ~size);
  Alcotest.(check int) "copy visible before the crash" 1
    (List.length (Cluster.read_candidates c ~key));
  (* Ride past the node's first downtime window: its copy is wiped. *)
  Clock.tick clock (stop + 1 - Clock.monotonic clock);
  Alcotest.(check bool) "no candidates after the crash" true
    (Cluster.read_candidates c ~key = []);
  Alcotest.(check bool) "nothing in flight" true
    (Cluster.earliest_pending c ~key = None);
  (match Cluster.declare_lost c ~key with
  | `Lost -> ()
  | `Stale -> Alcotest.fail "main still matched: this is a genuine loss");
  Alcotest.(check bool) "loss is observable: bytes zeroed" true
    (Memstore.load64 store ~addr:key = 0L
    && Memstore.load64 store ~addr:(key + 8) = 0L);
  Alcotest.(check bool) "object dropped from the directory" false
    (Cluster.has_object c ~key);
  Alcotest.(check bool) "crash was counted" true
    (Clock.get clock "cluster.crashes" > 0);
  (* Idempotent: a second declaration finds no live entry to zero. *)
  Alcotest.(check bool) "second declare is a no-op" true
    (Cluster.declare_lost c ~key = `Stale)

(* -- stale-shadow invalidation ------------------------------------------- *)

let test_stale_shadow_invalidated () =
  let _, store, c = mk_cluster ~replicas:2 ~ack:2 () in
  seed_object store;
  ignore (Cluster.writeback c ~key ~size);
  (* The allocator reuses the range behind the memory system's back
     (realloc blit / free-then-malloc): main no longer matches the
     last-writeback checksum. *)
  let fresh = 0x1234_5678_9abc_def0L in
  Memstore.store64 store ~addr:key fresh;
  (match Cluster.deliver c ~key ~node:(Cluster.primary c ~key) with
  | `Stale -> ()
  | `Delivered | `Lost ->
      Alcotest.fail "deliver must detect the stale shadow");
  Alcotest.(check bool) "live data never overwritten" true
    (Memstore.load64 store ~addr:key = fresh);
  Alcotest.(check bool) "stale entry invalidated" false
    (Cluster.has_object c ~key);
  (* And a stale entry with no replicas is not a loss: nothing zeroed. *)
  seed_object store;
  ignore (Cluster.writeback c ~key ~size);
  Memstore.store64 store ~addr:key fresh;
  Alcotest.(check bool) "stale declare_lost zeroes nothing" true
    (Cluster.declare_lost c ~key = `Stale
    && Memstore.load64 store ~addr:key = fresh)

(* -- crash / recovery / resync ------------------------------------------- *)

let test_recovery_resync () =
  let period = 1_000_000 and downtime = 100_000 in
  let clock, store, c =
    mk_cluster ~seed:5 ~replicas:3 ~ack:3 ~crash_period:period
      ~crash_downtime:downtime ()
  in
  let crashes = ref [] and recoveries = ref [] in
  Cluster.set_on_event c (fun e ->
      match e with
      | Cluster.Node_crashed { node; lost; _ } -> crashes := (node, lost) :: !crashes
      | Cluster.Node_recovered { node; missing; _ } ->
          recoveries := (node, missing) :: !recoveries);
  (* Several objects, all fully replicated (ack = replicas: no lag). *)
  let keys = List.init 5 (fun i -> key + (i * 4096)) in
  List.iter
    (fun k ->
      Memstore.store64 store ~addr:k (Int64.of_int (k * 3));
      ignore (Cluster.writeback c ~key:k ~size:8))
    keys;
  (* Find the node with the earliest window and step just past it, staying
     clear of every other node's window. *)
  let w n =
    match Cluster.crash_window c ~node:n 0 with
    | Some w -> w
    | None -> Alcotest.fail "crash schedule configured but no window"
  in
  let victim, (_, stop) =
    List.fold_left
      (fun (bn, (bs, be)) n ->
        let s, e = w n in
        if s < bs then (n, (s, e)) else (bn, (bs, be)))
      (0, w 0) [ 1; 2 ]
  in
  let probe_at = stop + 1 in
  List.iter
    (fun n ->
      if n <> victim then
        let s, _ = w n in
        Alcotest.(check bool) "stagger keeps other nodes up at probe time"
          true (probe_at < s))
    [ 0; 1; 2 ];
  Clock.tick clock (probe_at - Clock.monotonic clock);
  (* Touch the cluster so the lazy crash processing runs. *)
  List.iter (fun k -> ignore (Cluster.read_candidates c ~key:k)) keys;
  Alcotest.(check bool) "victim recovering after its window" true
    (Cluster.node_state c victim = `Recovering);
  Alcotest.(check bool) "crash event fired for the victim" true
    (List.exists (fun (n, lost) -> n = victim && lost > 0) !crashes);
  Alcotest.(check bool) "recovery event carries the missing count" true
    (List.exists (fun (n, missing) -> n = victim && missing > 0) !recoveries);
  let backlog = Cluster.resync_backlog c in
  Alcotest.(check bool) "resync backlog pending" true (backlog > 0);
  (* Every object still readable from the survivors meanwhile. *)
  List.iter
    (fun k ->
      Alcotest.(check bool) "survivors keep serving" true
        (Cluster.read_candidates c ~key:k <> []))
    keys;
  let moved = Cluster.resync_step c ~budget:1_000 in
  Alcotest.(check int) "resync drained the whole backlog" backlog moved;
  Alcotest.(check int) "nothing left to resync" 0 (Cluster.resync_backlog c);
  Alcotest.(check bool) "victim back up" true
    (Cluster.node_state c victim = `Up);
  Alcotest.(check bool) "recovery was counted" true
    (Clock.get clock "cluster.recoveries" > 0);
  (* Re-protected: the victim serves reads again. *)
  List.iter
    (fun k ->
      Alcotest.(check int) "full replica set restored" 3
        (List.length (Cluster.read_candidates c ~key:k)))
    keys

(* -- transit corruption: detect and repair through Net -------------------- *)

let test_corruption_detect_repair () =
  let cfg = { Faults.off with Faults.corrupt = 0.4 } in
  let clock = Clock.create () in
  let store = Memstore.create () in
  let cluster =
    match
      Cluster.create_opt ~seed:11 ~clock ~store ~replicas:2 ~ack:2
        ~faults:cfg ()
    with
    | Some c -> c
    | None -> Alcotest.fail "corrupt rate must force a cluster"
  in
  let net =
    Net.create ~faults:(Faults.create ~seed:11 cfg) ~cluster cost clock Net.Tcp
  in
  seed_object store;
  Net.writeback_object net ~key ~bytes:size;
  for _ = 1 to 25 do
    Net.fetch_object net ~key ~bytes:size
  done;
  Alcotest.(check bool) "corruptions detected" true
    (Clock.get clock "net.corruptions_detected" > 0);
  Alcotest.(check bool) "every corruption repaired by a clean re-read" true
    (Clock.get clock "net.repairs" > 0);
  Alcotest.(check int) "nothing lost" 0 (Clock.get clock "net.lost_objects");
  Alcotest.(check bool) "payload intact after every repair" true
    (object_intact store)

(* -- acceptance: replication is what saves the workload ------------------- *)

let stream = Workloads.Stream.workload ~n:20_000 Workloads.Stream.Sum

let run_stream_under_crashes ~replicas ~ack =
  let open Workloads in
  let budget = stream.working_set / 4 in
  let cfg =
    { Faults.off with Faults.crash_period = 200_000; crash_downtime = 33_000 }
  in
  let opts =
    {
      (Driver.tfm_defaults ~local_budget:budget) with
      Driver.faults = Faults.create ~seed:1 cfg;
      Driver.replicas = replicas;
      Driver.ack = ack;
    }
  in
  let o, _ = Driver.run_trackfm stream.build opts in
  (o.Driver.ret, Driver.counter o "net.lost_objects")

let test_replication_saves_the_workload () =
  let expected = Lazy.force stream.oracle in
  let ret1, lost1 = run_stream_under_crashes ~replicas:1 ~ack:1 in
  Alcotest.(check bool) "replicas=1 loses objects under crashes" true
    (lost1 > 0);
  Alcotest.(check bool) "replicas=1 corrupts the answer" true
    (ret1 <> expected);
  let ret3, lost3 = run_stream_under_crashes ~replicas:3 ~ack:2 in
  Alcotest.(check int) "replicas=3 ack=2 loses nothing" 0 lost3;
  Alcotest.(check int) "replicas=3 ack=2 answer correct" expected ret3

let suite =
  ( "cluster",
    [
      Alcotest.test_case "create_opt zero-cost gate" `Quick
        test_create_opt_gate;
      Alcotest.test_case "crash windows staggered" `Quick
        test_crash_windows_staggered;
      Alcotest.test_case "writeback ack/lag" `Quick test_writeback_ack_lag;
      Alcotest.test_case "deliver 64-bit exact" `Quick
        test_deliver_roundtrip_exact;
      Alcotest.test_case "single-node loss observable" `Quick
        test_single_node_loss;
      Alcotest.test_case "stale shadow invalidated" `Quick
        test_stale_shadow_invalidated;
      Alcotest.test_case "recovery resync" `Quick test_recovery_resync;
      Alcotest.test_case "corruption detect/repair" `Quick
        test_corruption_detect_repair;
      Alcotest.test_case "replication saves the workload" `Quick
        test_replication_saves_the_workload;
    ] )
