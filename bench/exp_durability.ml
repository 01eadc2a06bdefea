(* Robustness: the replicated remote tier vs crash faults.

   A single memory server that crashes loses every object it held; the
   workload's own answer goes wrong (lost objects read back as zeros).
   This experiment runs the same workloads under a periodic per-node
   crash schedule and shows that a 3-node tier with ack=2 writebacks
   rides through the same schedule — failover reads serve surviving
   replicas, recovery resync re-protects objects, and every checksum
   stays correct. The assertions are the point: replicas=1 MUST lose
   data under this schedule, replicas=3 MUST NOT. *)

open Bench_common

(* Crash schedule: every node dies once per PERIOD for PERIOD/6 cycles,
   staggered so replicas never overlap (Cluster.window spaces nodes
   PERIOD/N apart; PERIOD/6 < PERIOD/3). Scaled alongside the workload
   sizes so --quick still sees several windows. *)
let crash_period = 1_500_000
let crash_cfg () =
  let period = scaled crash_period in
  match Faults.parse (Printf.sprintf "crash=%d:%d" period (period / 6)) with
  | Ok cfg -> cfg
  | Error e -> failwith ("exp_durability: " ^ e)

let run_one ~system ~build ~blobs ~budget ~replicas ~ack =
  let fabric = { !setup.fabric with faults = crash_cfg (); replicas; ack } in
  match system with
  | `Trackfm -> fst (tfm ~fabric ?blobs (tfm_opts ~budget) build)
  | `Fastswap -> fastswap ~fabric ?blobs ~budget build

let durability () =
  let cases =
    [
      ( "stream-sum",
        (fun () ->
          let n = scaled 200_000 in
          let kernel = Stream.Sum in
          ( (fun () -> Stream.build ~n ~kernel ()),
            None,
            Stream.working_set_bytes ~n ~kernel (),
            Stream.checksum ~n ~kernel () )) );
      (* Not hashmap here: a lost table slot reads as zero and the probe
         loop spins forever hunting a key that no longer exists — data
         loss as a hang, which a table can't show. Analytics keeps every
         loop bound a constant, so loss surfaces as a wrong answer. *)
      ( "analytics",
        (fun () ->
          let p = Analytics.default_params ~rows:(scaled 150_000) in
          ( (fun () -> Analytics.build p ()),
            None,
            Analytics.working_set_bytes p,
            Analytics.checksum p )) );
    ]
  in
  let systems = [ ("trackfm", `Trackfm); ("fastswap", `Fastswap) ] in
  let tiers = [ (1, 1); (3, 2) ] in
  List.iter
    (fun (name, mk) ->
      let build, blobs, ws, expected = mk () in
      let budget = budget_of ws 25 in
      let t =
        Tfm_util.Table.create
          ~title:
            (Printf.sprintf
               "%s at 25%% local memory under %s (seed %d)" name
               (Faults.to_string (crash_cfg ()))
               !setup.fabric.fault_seed)
          ~columns:
            [
              "system"; "replicas"; "ack"; "checksum"; "lost"; "failovers";
              "resynced"; "crashes"; "cycles";
            ]
      in
      List.iter
        (fun (sys_name, system) ->
          List.iter
            (fun (replicas, ack) ->
              let o = run_one ~system ~build ~blobs ~budget ~replicas ~ack in
              let lost = Driver.counter o "net.lost_objects" in
              let correct = o.Driver.ret = expected in
              Tfm_util.Table.add_rowf t "%s | %d | %d | %s | %d | %d | %d | %d | %s"
                sys_name replicas ack
                (if correct then "correct" else "WRONG")
                lost
                (Driver.counter o "net.failovers")
                (Driver.counter o "net.resync_objects")
                (Driver.counter o "cluster.crashes")
                (Tfm_util.Units.cycles_to_string o.Driver.cycles);
              if replicas = 1 then begin
                (* The whole point: a single node under this schedule
                   demonstrably loses data. *)
                assert (lost > 0);
                assert (not correct)
              end
              else begin
                assert (correct);
                assert (lost = 0)
              end)
            tiers)
        systems;
      report_table t)
    cases;
  print_expectation
    ~paper:"(no crash-fault study; the memory server is assumed reliable)"
    ~ours:
      "replicas=1 loses objects and corrupts every workload answer; \
       replicas=3 ack=2 rides the identical crash schedule with correct \
       checksums via failover reads and recovery resync"
