type backend = Tcp | Rdma

(* Counter handles, resolved once: the transfer paths' and the fault,
   retry and replication paths'. *)
let c_bytes_in = Clock.counter "net.bytes_in"
let c_bytes_out = Clock.counter "net.bytes_out"
let c_fetches = Clock.counter "net.fetches"
let c_prefetched_fetches = Clock.counter "net.prefetched_fetches"
let c_writebacks = Clock.counter "net.writebacks"
let c_backoff_cycles = Clock.counter "net.backoff_cycles"
let c_breaker_opens = Clock.counter "net.breaker_opens"
let c_breaker_probes = Clock.counter "net.breaker_probes"
let c_corruptions_detected = Clock.counter "net.corruptions_detected"
let c_fail_fast = Clock.counter "net.fail_fast"
let c_failovers = Clock.counter "net.failovers"
let c_fetch_failures = Clock.counter "net.fetch_failures"
let c_latency_spikes = Clock.counter "net.latency_spikes"
let c_lost_objects = Clock.counter "net.lost_objects"
let c_lost_reads = Clock.counter "net.lost_reads"
let c_nacks = Clock.counter "net.nacks"
let c_repairs = Clock.counter "net.repairs"
let c_replica_lag = Clock.counter "net.replica_lag"
let c_replica_skips = Clock.counter "net.replica_skips"
let c_resync_objects = Clock.counter "net.resync_objects"
let c_retries = Clock.counter "net.retries"
let c_spike_cycles = Clock.counter "net.spike_cycles"
let c_stale_drops = Clock.counter "net.stale_drops"
let c_stall_cycles = Clock.counter "net.stall_cycles"
let c_timeouts = Clock.counter "net.timeouts"

type retry_policy = {
  max_attempts : int;
  attempt_timeout : int;
  op_deadline : int;
  backoff_base : int;
  backoff_cap : int;
  fail_fast_cycles : int;
  probe_interval : int;
}

(* Scaled off the ~32 Kcycle wire round trip: a 4-RTT attempt timeout,
   1-RTT base backoff capped at 16 RTT, and a 64-RTT per-op deadline. *)
let default_policy =
  {
    max_attempts = 5;
    attempt_timeout = 128_000;
    op_deadline = 2_048_000;
    backoff_base = 32_000;
    backoff_cap = 512_000;
    fail_fast_cycles = 40;
    probe_interval = 1_024_000;
  }

type error =
  | Unreachable of { probe_at : int }
  | Budget_exhausted of { attempts : int }

type event =
  | Retry of { attempt : int; backoff : int; reason : [ `Nack | `Timeout ] }
  | Breaker_opened of { at : int; probe_at : int }
  | Breaker_closed of { opened_at : int; at : int }
  | Fetch_failed of { attempts : int }
  | Failover of { key : int; primary : int; replica : int }
  | Corruption_detected of { key : int; node : int }
  | Repaired of { key : int; node : int }
  | Object_lost of { key : int }

type breaker = Closed | Open of { opened_at : int; probe_at : int }

type t = {
  cost : Cost_model.t;
  clock : Clock.t;
  latency : int;
  faults : Faults.t;
  cluster : Cluster.t option;
  policy : retry_policy;
  jitter : Tfm_util.Rng.t;
  mutable breaker : breaker;
  mutable stall_handler : cycles:int -> unit;
  mutable on_event : event -> unit;
  (* Causal-attribution scope hooks (installed by the telemetry sink):
     cycles charged between [span_enter k] and [span_leave ()] belong to
     fault-path retries or to replica failover, not to the fetch itself.
     Default no-ops; the fault-free fetch path never calls them. *)
  mutable span_enter : [ `Retry | `Failover ] -> unit;
  mutable span_leave : unit -> unit;
}

let create ?(faults = Faults.disabled) ?cluster ?(policy = default_policy)
    cost clock backend =
  let latency =
    match backend with
    | Tcp -> cost.Cost_model.tcp_latency
    | Rdma -> cost.Cost_model.rdma_latency
  in
  {
    cost;
    clock;
    latency;
    faults;
    cluster;
    policy;
    (* Jitter draws come from a stream independent of the fault verdicts
       so policy tweaks do not shift which attempts fail. *)
    jitter = Tfm_util.Rng.create (Faults.seed faults + 0x5bd1e995);
    breaker = Closed;
    stall_handler = (fun ~cycles:_ -> ());
    on_event = (fun _ -> ());
    span_enter = (fun _ -> ());
    span_leave = (fun () -> ());
  }

let faults t = t.faults
let cluster t = t.cluster
let set_stall_handler t f = t.stall_handler <- f
let on_event t f = t.on_event <- f

let set_span_scope t ~enter ~leave =
  t.span_enter <- enter;
  t.span_leave <- leave

(* Run [f] inside an attribution scope, even across exceptions (none of
   the fault paths raise today, but the hook contract must not depend on
   that). *)
let in_scope t kind f =
  t.span_enter kind;
  Fun.protect ~finally:t.span_leave f
let remote_available t = t.breaker = Closed

(* Sleeping (backoff, waiting out an open breaker) charges the simulated
   clock here; the handler only adds scheduler integration on top. *)
let stall t cycles =
  if cycles > 0 then begin
    Clock.tick t.clock cycles;
    Clock.add t.clock c_stall_cycles cycles;
    t.stall_handler ~cycles
  end

(* Success-side accounting shared by demand and prefetched fetches. *)
let account_success t ~bytes ~prefetched =
  Clock.add t.clock c_bytes_in bytes;
  Clock.add t.clock c_fetches 1;
  if prefetched then Clock.add t.clock c_prefetched_fetches 1

(* -- fault-free path (bit-identical to the pre-fault model) -------------- *)

let plain_fetch t ~bytes ~latency ~prefetched =
  Clock.tick t.clock (Cost_model.transfer_cycles t.cost ~latency ~bytes);
  account_success t ~bytes ~prefetched

(* -- fault path ---------------------------------------------------------- *)

let open_breaker t =
  let now = Clock.cycles t.clock in
  let probe_at = now + t.policy.probe_interval in
  (match t.breaker with
  | Open _ -> ()
  | Closed ->
      Clock.add t.clock c_breaker_opens 1;
      t.on_event (Breaker_opened { at = now; probe_at }));
  (match t.breaker with
  | Open { opened_at; _ } -> t.breaker <- Open { opened_at; probe_at }
  | Closed -> t.breaker <- Open { opened_at = now; probe_at })

let close_breaker t =
  match t.breaker with
  | Closed -> ()
  | Open { opened_at; _ } ->
      t.breaker <- Closed;
      t.on_event (Breaker_closed { opened_at; at = Clock.cycles t.clock })

(* One wire attempt: charges its own cost and reports the outcome. An
   attempt made inside an outage window never arrives — the sender only
   learns via its attempt timeout. Failed "prefetched" attempts lost
   their overlap, so every failure costs wire-level cycles. *)
let wire_attempt t ~bytes ~success_latency ~prefetched =
  let now = Clock.cycles t.clock in
  if Faults.in_outage t.faults ~now then
    in_scope t `Retry (fun () ->
        Clock.tick t.clock t.policy.attempt_timeout;
        Clock.add t.clock c_timeouts 1;
        `Failed `Timeout)
  else
    match Faults.attempt t.faults with
    | Faults.Deliver extra ->
        Clock.tick t.clock
          (Cost_model.transfer_cycles t.cost ~latency:success_latency ~bytes
          + extra);
        if extra > 0 then begin
          Clock.add t.clock c_latency_spikes 1;
          Clock.add t.clock c_spike_cycles extra
        end;
        account_success t ~bytes ~prefetched;
        `Delivered
    | Faults.Nack ->
        (* The remote answered with a refusal: one round trip burned. *)
        in_scope t `Retry (fun () ->
            Clock.tick t.clock t.latency;
            Clock.add t.clock c_nacks 1;
            `Failed `Nack)
    | Faults.Timeout ->
        in_scope t `Retry (fun () ->
            Clock.tick t.clock t.policy.attempt_timeout;
            Clock.add t.clock c_timeouts 1;
            `Failed `Timeout)

(* Exponential backoff with deterministic decorrelating jitter: sleep in
   [backoff/2, backoff], doubling per retry up to the cap. *)
let backoff_cycles t ~attempt =
  let base =
    min t.policy.backoff_cap (t.policy.backoff_base lsl min 20 (attempt - 1))
  in
  let half = max 1 (base / 2) in
  half + Tfm_util.Rng.int t.jitter half

let try_fetch_faulted t ~bytes ~success_latency ~prefetched =
  let now = Clock.cycles t.clock in
  match t.breaker with
  | Open { probe_at; _ } when now < probe_at ->
      (* Fail fast: no wire traffic while the breaker is open. *)
      in_scope t `Retry (fun () ->
          Clock.tick t.clock t.policy.fail_fast_cycles);
      Clock.add t.clock c_fail_fast 1;
      Error (Unreachable { probe_at })
  | Open _ -> (
      (* Half-open: one probe attempt, no retry ladder. *)
      Clock.add t.clock c_breaker_probes 1;
      match wire_attempt t ~bytes ~success_latency ~prefetched with
      | `Delivered ->
          close_breaker t;
          Ok ()
      | `Failed _ ->
          open_breaker t;
          let probe_at =
            match t.breaker with
            | Open { probe_at; _ } -> probe_at
            | Closed -> assert false
          in
          Error (Unreachable { probe_at }))
  | Closed ->
      let start = Clock.cycles t.clock in
      let rec attempt_loop attempt =
        match wire_attempt t ~bytes ~success_latency ~prefetched with
        | `Delivered -> Ok ()
        | `Failed reason ->
            let spent = Clock.cycles t.clock - start in
            if attempt >= t.policy.max_attempts
               || spent >= t.policy.op_deadline
            then begin
              Clock.add t.clock c_fetch_failures 1;
              t.on_event (Fetch_failed { attempts = attempt });
              (* A fully exhausted ladder is the breaker's trip signal:
                 flip to fail-fast and probe for recovery. *)
              open_breaker t;
              let probe_at =
                match t.breaker with
                | Open { probe_at; _ } -> probe_at
                | Closed -> assert false
              in
              if Faults.in_outage t.faults ~now:(Clock.cycles t.clock) then
                Error (Unreachable { probe_at })
              else Error (Budget_exhausted { attempts = attempt })
            end
            else begin
              let backoff = backoff_cycles t ~attempt in
              Clock.add t.clock c_retries 1;
              Clock.add t.clock c_backoff_cycles backoff;
              t.on_event (Retry { attempt; backoff; reason });
              in_scope t `Retry (fun () -> stall t backoff);
              attempt_loop (attempt + 1)
            end
      in
      attempt_loop 1

let try_fetch_with t ~bytes ~success_latency ~prefetched =
  if not (Faults.enabled t.faults) then begin
    plain_fetch t ~bytes ~latency:success_latency ~prefetched;
    Ok ()
  end
  else try_fetch_faulted t ~bytes ~success_latency ~prefetched

let try_fetch t ~bytes =
  try_fetch_with t ~bytes ~success_latency:t.latency ~prefetched:false

(* Blocking fetch: the application cannot make progress without the
   data, so ride out failures — stall to the breaker's probe time (or
   one backoff cap after an exhausted ladder) and go again. Every cycle
   lands on the simulated clock, so finite outage windows always end. *)
let rec fetch_blocking t ~bytes ~success_latency ~prefetched =
  match try_fetch_with t ~bytes ~success_latency ~prefetched with
  | Ok () -> ()
  | Error e ->
      in_scope t `Retry (fun () ->
          match e with
          | Unreachable { probe_at } ->
              stall t (probe_at - Clock.cycles t.clock)
          | Budget_exhausted _ -> stall t t.policy.backoff_cap);
      (* After the first failed op the overlap window is long gone. *)
      fetch_blocking t ~bytes ~success_latency:t.latency ~prefetched

let fetch t ~bytes =
  fetch_blocking t ~bytes ~success_latency:t.latency ~prefetched:false

let fetch_prefetched t ~bytes =
  (* Same cost/counter path as [fetch]; the hidden latency shows up as
     the residual [prefetch_hit] charge on success. *)
  fetch_blocking t ~bytes ~success_latency:t.cost.Cost_model.prefetch_hit
    ~prefetched:true

(* Dirty data is pushed back by the asynchronous reclaim path (Fastswap's
   dedicated reclaim core, AIFM's evacuator threads), so the application
   only pays a small enqueue cost; the volume still counts toward the
   transfer totals the I/O-amplification figures report. *)
let writeback_enqueue_cycles = 250

let writeback t ~bytes =
  Clock.tick t.clock writeback_enqueue_cycles;
  Clock.add t.clock c_bytes_out bytes;
  Clock.add t.clock c_writebacks 1

(* -- replicated tier ------------------------------------------------------

   Object-granular entry points used by the runtimes. With no cluster
   attached they delegate to the exact single-server paths above, so a
   [--replicas 1] run with no crash/corrupt faults stays bit-identical
   to the pre-replication model. With a cluster, a fetch walks the
   replica ladder primary-first: each candidate read pays the normal
   wire cost (including the fault/retry/breaker machinery), corrupted
   payloads are detected against the checksum envelope and repaired by
   re-fetching, and when no replica holds the object the loss is
   declared and the workload observes zeroes. *)

let replicated_fetch t c ~key ~bytes ~success_latency ~prefetched =
  let primary = Cluster.primary c ~key in
  let failed_over = ref false in
  let corrupted = ref false in
  let rec go ~excluded ~success_latency =
    let all = Cluster.read_candidates c ~key in
    let filtered = List.filter (fun n -> not (List.mem n excluded)) all in
    (* If corruption excluded every holder, forgive and retry them:
       corruption is transit-only, a re-read can come back clean. *)
    let candidates, excluded =
      if filtered = [] && all <> [] then (all, []) else (filtered, excluded)
    in
    match candidates with
    | [] -> (
        match Cluster.earliest_pending c ~key with
        | Some at ->
            (* Every visible copy is down, but a lagged replica write is
               in flight: wait for it to apply, then retry. *)
            in_scope t `Failover (fun () ->
                stall t (max 1 (at - Clock.monotonic t.clock)));
            go ~excluded ~success_latency:t.latency
        | None ->
            (* No copy anywhere, none coming: the object is gone. One
               round trip to learn it; the workload reads zeroes. *)
            in_scope t `Failover (fun () -> Clock.tick t.clock t.latency);
            (match Cluster.declare_lost c ~key with
            | `Lost ->
                Clock.add t.clock c_lost_objects 1;
                t.on_event (Object_lost { key })
            | `Stale ->
                (* Only a stale shadow of a freed/rewritten range was
                   wiped; the live bytes are in main. *)
                Clock.add t.clock c_stale_drops 1))
    | node :: _ -> (
        if node <> primary && not !failed_over then begin
          failed_over := true;
          Clock.add t.clock c_failovers 1;
          t.on_event (Failover { key; primary; replica = node })
        end;
        match try_fetch_with t ~bytes ~success_latency ~prefetched with
        | Error (Unreachable { probe_at }) ->
            in_scope t `Failover (fun () ->
                stall t (probe_at - Clock.cycles t.clock));
            go ~excluded ~success_latency:t.latency
        | Error (Budget_exhausted _) ->
            in_scope t `Failover (fun () -> stall t t.policy.backoff_cap);
            go ~excluded ~success_latency:t.latency
        | Ok () ->
            if Cluster.corrupt_draw c ~node then begin
              (* Checksum mismatch on the delivered payload: count the
                 detection, drop this replica for the moment and re-fetch
                 (the wire cost of the bad read is already charged). *)
              Clock.add t.clock c_corruptions_detected 1;
              t.on_event (Corruption_detected { key; node });
              corrupted := true;
              go ~excluded:(node :: excluded) ~success_latency:t.latency
            end
            else begin
              if !corrupted then begin
                Clock.add t.clock c_repairs 1;
                t.on_event (Repaired { key; node })
              end;
              match Cluster.deliver c ~key ~node with
              | `Delivered -> ()
              | `Stale -> Clock.add t.clock c_stale_drops 1
              | `Lost ->
                  (* Lost mid-fetch: the stall that got us to this node
                     crossed a crash window that took the last copy. The
                     loss is already counted and main zeroed. *)
                  Clock.add t.clock c_lost_reads 1
            end)
  in
  go ~excluded:[] ~success_latency

let fetch_object t ~key ~bytes =
  match t.cluster with
  | None -> fetch t ~bytes
  | Some c ->
      if Cluster.has_object c ~key then
        replicated_fetch t c ~key ~bytes ~success_latency:t.latency
          ~prefetched:false
      else
        (* Never written back: nothing replicated (or lost and already
           zeroed) — the single-server path applies. *)
        fetch t ~bytes

let fetch_object_prefetched t ~key ~bytes =
  match t.cluster with
  | None -> fetch_prefetched t ~bytes
  | Some c ->
      if Cluster.has_object c ~key then
        replicated_fetch t c ~key ~bytes
          ~success_latency:t.cost.Cost_model.prefetch_hit ~prefetched:true
      else fetch_prefetched t ~bytes

let writeback_object t ~key ~bytes =
  match t.cluster with
  | None -> writeback t ~bytes
  | Some c ->
      Clock.tick t.clock writeback_enqueue_cycles;
      Clock.add t.clock c_writebacks 1;
      let r = Cluster.writeback c ~key ~size:bytes in
      (* The async reclaim path ships one copy per replica written. *)
      Clock.add t.clock c_bytes_out (bytes * r.Cluster.written);
      if r.Cluster.lagged > 0 then
        Clock.add t.clock c_replica_lag r.Cluster.lagged;
      if r.Cluster.skipped > 0 then
        Clock.add t.clock c_replica_skips r.Cluster.skipped

let resync_batch = 512
let resync_orchestration_cycles = 120

let resync_step t =
  match t.cluster with
  | None -> 0
  | Some c ->
      let moved = Cluster.resync_step c ~budget:resync_batch in
      if moved > 0 then begin
        (* Replica-to-replica traffic: the compute node only pays the
           orchestration cost and yields while the copies stream. *)
        Clock.tick t.clock resync_orchestration_cycles;
        Clock.add t.clock c_resync_objects moved;
        t.stall_handler ~cycles:resync_orchestration_cycles
      end;
      moved

let bytes_in t = Clock.value t.clock c_bytes_in
let bytes_out t = Clock.value t.clock c_bytes_out
let fetches t = Clock.value t.clock c_fetches
