(* Overload-robust multi-tenant serving: an open-loop Poisson/Zipf
   traffic generator in front of the memcached tier, with admission
   control, load shedding and graceful degradation. See serving.mli for
   the model; the short version:

   - one dispatcher task generates arrivals on an absolute timeline
     (open loop: the backlog never slows the client down) and runs the
     admission/shedding decision at the door;
   - admitted requests queue; parked connection-handler tasks are
     unparked one per admit and drain the queue;
   - a request is CPU work plus a per-tenant LRU lookup; misses go to
     far memory through the real {!Net} transport, so the retry ladder,
     circuit breaker and replica failover all happen under load.

   Time bridge: the Shenango core clock is the master timeline, and the
   memsim clock doubles as the wire/fabric timeline. Before a transport
   op the wire clock is raced forward to core time (idle wire catches
   up); the op ticks the wire clock by its full cost; afterwards the
   task blocks until the wire clock — so concurrent fetches serialize on
   the fabric (one NIC) and every retry/backoff/outage cycle lands in
   scheduler time. Backoff and breaker waits additionally release the
   core mid-op through the stall handler, which keeps the Retry span
   frames honest. *)

module Sched = Shenango.Sched
module Rng = Tfm_util.Rng
module Zipf = Tfm_util.Zipf
module H = Telemetry.Histogram
module Sink = Telemetry.Sink
module Span = Telemetry.Span
module Json = Telemetry.Json

type backend = Trackfm | Fastswap | Aifm

let backend_name = function
  | Trackfm -> "trackfm"
  | Fastswap -> "fastswap"
  | Aifm -> "aifm"

let backend_of_string = function
  | "trackfm" -> Some Trackfm
  | "fastswap" -> Some Fastswap
  | "aifm" -> Some Aifm
  | _ -> None

type tenant = {
  tn_name : string;
  weight : int;
  keys : int;
  skew : float;
  budget : int;
}

let default_tenants ~n ~keys ~budget =
  List.init n (fun i ->
      { tn_name = Printf.sprintf "t%d" i; weight = 1; keys; skew = 0.99;
        budget })

type controls = {
  admission : bool;
  shedding : bool;
  degradation : bool;
  queue_cap : int;
  deadline : int;
}

let default_controls =
  {
    admission = true;
    shedding = true;
    degradation = true;
    queue_cap = 256;
    deadline = 500_000;
  }

let open_loop = { default_controls with admission = false; shedding = false;
                  degradation = false }

type params = {
  backend : backend;
  tenants : tenant list;
  rate : float;
  requests : int;
  service_cycles : int;
  value_size : int;
  connections : int;
  readahead : int;
  seed : int;
  controls : controls;
  faults : Faults.config;
  fault_seed : int;
  replicas : int;
  ack : int;
}

let default_params =
  {
    backend = Trackfm;
    tenants = default_tenants ~n:2 ~keys:65_536 ~budget:(1 lsl 21);
    rate = 30.0;
    requests = 20_000;
    service_cycles = 10_000;
    value_size = 64;
    connections = 64;
    readahead = 2;
    seed = 42;
    controls = default_controls;
    faults = Faults.off;
    fault_seed = 1;
    replicas = 1;
    ack = 1;
  }

type tenant_stats = {
  tenant : tenant;
  offered : int;
  admitted : int;
  completed : int;
  degraded : int;
  rejected : int;
  shed : int;
  throttled : int;
  hits : int;
  misses : int;
  cold : int;
  evictions : int;
  good : int;
  latency : H.t;
  checksum : int;
}

(* Deterministic LRU: hash table into an intrusive doubly-linked list,
   so eviction order never depends on hash iteration. *)
module Lru = struct
  type node = {
    nk : int;
    mutable prev : node option;
    mutable next : node option;
  }

  type t = {
    tbl : (int, node) Hashtbl.t;
    mutable mru : node option;
    mutable lru : node option;
  }

  let create () = { tbl = Hashtbl.create 1024; mru = None; lru = None }
  let size t = Hashtbl.length t.tbl
  let mem t k = Hashtbl.mem t.tbl k

  let unlink t n =
    (match n.prev with Some p -> p.next <- n.next | None -> t.mru <- n.next);
    (match n.next with Some s -> s.prev <- n.prev | None -> t.lru <- n.prev);
    n.prev <- None;
    n.next <- None

  let push_front t n =
    n.next <- t.mru;
    n.prev <- None;
    (match t.mru with Some m -> m.prev <- Some n | None -> t.lru <- Some n);
    t.mru <- Some n

  let touch t k =
    match Hashtbl.find_opt t.tbl k with
    | None -> ()
    | Some n ->
        unlink t n;
        push_front t n

  let add t k =
    if not (Hashtbl.mem t.tbl k) then begin
      let n = { nk = k; prev = None; next = None } in
      Hashtbl.replace t.tbl k n;
      push_front t n
    end

  let pop_lru t =
    match t.lru with
    | None -> None
    | Some n ->
        unlink t n;
        Hashtbl.remove t.tbl n.nk;
        Some n.nk
end

(* Per-tenant run state. *)
type tstate = {
  tn : tenant;
  idx : int;
  base : int;  (* main-store base address of this tenant's key space *)
  zipf : Zipf.t;
  lru : Lru.t;
  cap : int;  (* resident grains the budget allows *)
  registered : (int, unit) Hashtbl.t;  (* grain -> written back once *)
  mutable queued : int;  (* requests of this tenant in the accept queue *)
  mutable s_offered : int;
  mutable s_admitted : int;
  mutable s_completed : int;
  mutable s_degraded : int;
  mutable s_rejected : int;
  mutable s_shed : int;
  mutable s_throttled : int;
  mutable s_hits : int;
  mutable s_misses : int;
  mutable s_cold : int;
  mutable s_evict : int;
  mutable s_good : int;
  s_lat : H.t;
  mutable s_ck : int;
}

type request = {
  rq : tstate;
  key : int;
  arrived : int;  (* client send time (absolute arrival timeline) *)
  enq : int;  (* when the dispatcher actually queued it *)
  tok : int option;  (* saved span context *)
}

type st = {
  p : params;
  cm : Cost_model.t;
  clock : Clock.t;
  sched : Sched.t;
  net : Net.t;
  sink : Sink.t;
  sp : Span.t option;
  store : Memstore.t;
  q : request Queue.t;
  ts : tstate array;
  total_weight : int;
  arng : Rng.t;  (* arrival gaps *)
  trng : Rng.t;  (* tenant pick *)
  krng : Rng.t;  (* key pick *)
  mutable done_ : bool;
  mutable ewma : int;  (* EWMA of per-request core cycles *)
  mutable maxq : int;
}

let ck_mask = 0x3FFFFFFF

(* Same value function as the memcached workload, so values are real
   data: loss (zeroed bytes) and corruption repair are observable in the
   response checksum. *)
let value_word k w = ((k * 131) + (w * 17)) land 0xFFFF

(* Tenants get disjoint 4 GiB address windows in the shared main store;
   pages materialize lazily so only touched keys cost memory. *)
let tenant_stride = 1 lsl 32

let grain_size p =
  match p.backend with Fastswap -> Memstore.page_size | _ -> p.value_size

let grain_of st addr =
  match st.p.backend with
  | Fastswap -> addr land lnot Memstore.page_mask
  | Trackfm | Aifm -> addr

let addr_of ts p key = ts.base + (key * p.value_size)

(* The wire bridge (see the header comment). *)
let with_net st f =
  let t = Sched.now () in
  let c = Clock.cycles st.clock in
  if c < t then Clock.tick st.clock (t - c);
  f ();
  let lag = Clock.cycles st.clock - Sched.now () in
  if lag > 0 then Sched.block lag

let write_value st ts key =
  let words = st.p.value_size / 8 in
  let addr = addr_of ts st.p key in
  for w = 0 to words - 1 do
    Memstore.store st.store ~addr:(addr + (w * 8)) ~size:8 (value_word key w)
  done

(* First touch of a Fastswap page fills every value it holds, so a
   page-granular fetch later returns real neighbors. *)
let register_page st ts g =
  let vpp = Memstore.page_size / st.p.value_size in
  let first = (g - ts.base) / st.p.value_size in
  for k = first to min (first + vpp - 1) (ts.tn.keys - 1) do
    write_value st ts k
  done

let count st name = Clock.count st.clock name 1

(* Insert a grain into the tenant's resident set, evicting the LRU one
   when the budget is full. Resident objects are clean (read-mostly
   cache), so eviction is bookkeeping only. *)
let insert_resident st ts g wk =
  if Lru.mem ts.lru g then Lru.touch ts.lru g
  else begin
    if Lru.size ts.lru >= ts.cap then begin
      Sink.cat_enter st.sink Span.Evict_stall;
      (match Lru.pop_lru ts.lru with
      | Some _ ->
          ts.s_evict <- ts.s_evict + 1;
          count st "serving.evictions";
          wk
            (match st.p.backend with
            | Fastswap -> st.cm.Cost_model.evict_page
            | Trackfm | Aifm -> st.cm.Cost_model.evict_object)
      | None -> ());
      Sink.cat_exit st.sink
    end;
    Lru.add ts.lru g
  end

(* Serve one dequeued request; returns the core cycles it consumed (the
   admission controller's EWMA feed). *)
let serve st req =
  let ts = req.rq in
  let p = st.p in
  let cm = st.cm in
  let core = ref 0 in
  let wk c =
    core := !core + c;
    Sched.work c
  in
  let words = p.value_size / 8 in
  let addr = addr_of ts p req.key in
  let g = grain_of st addr in
  let gsz = grain_size p in
  (* Request CPU: parse, hash, build the response. *)
  wk p.service_cycles;
  if Lru.mem ts.lru g then begin
    Lru.touch ts.lru g;
    ts.s_hits <- ts.s_hits + 1;
    count st "serving.hits";
    match p.backend with
    | Trackfm -> wk cm.Cost_model.fast_guard_read
    | Aifm ->
        wk (cm.Cost_model.fast_guard_read + cm.Cost_model.metadata_indirection)
    | Fastswap -> ()
  end
  else begin
    Sink.cat_enter st.sink Span.Guard_slow;
    if not (Hashtbl.mem ts.registered g) then begin
      (* Cold: first touch creates the object locally (origin write) and
         replicates it to the remote tier. *)
      ts.s_cold <- ts.s_cold + 1;
      count st "serving.cold";
      (match p.backend with
      | Trackfm | Aifm ->
          wk cm.Cost_model.slow_guard_write_local;
          write_value st ts req.key
      | Fastswap ->
          wk cm.Cost_model.fastswap_fault_local;
          register_page st ts g);
      wk (words * cm.Cost_model.local_access);
      Hashtbl.replace ts.registered g ();
      with_net st (fun () -> Net.writeback_object st.net ~key:g ~bytes:gsz);
      insert_resident st ts g wk
    end
    else if p.controls.degradation && not (Net.remote_available st.net) then begin
      (* Serve-stale: the fabric is unreachable, answer from the last
         locally known bytes at local cost instead of stalling. *)
      ts.s_degraded <- ts.s_degraded + 1;
      count st "serving.stale";
      (match st.sp with
      | Some sp ->
          Span.note sp ~name:"serving.stale"
            ~detail:
              (Printf.sprintf "tenant=%s key=%d breaker_open" ts.tn.tn_name
                 req.key)
      | None -> ());
      wk cm.Cost_model.slow_guard_read_local
    end
    else begin
      (* Capacity miss: fetch from far memory. *)
      ts.s_misses <- ts.s_misses + 1;
      count st "serving.misses";
      (match p.backend with
      | Trackfm -> wk cm.Cost_model.slow_guard_read_local
      | Aifm ->
          wk
            (cm.Cost_model.slow_guard_read_local
            + cm.Cost_model.metadata_indirection)
      | Fastswap -> wk cm.Cost_model.fastswap_fault_base);
      with_net st (fun () -> Net.fetch_object st.net ~key:g ~bytes:gsz);
      insert_resident st ts g wk;
      if p.backend = Fastswap && p.readahead > 0 then begin
        (* Kernel readahead: pull the next pages at prefetched residual
           cost — unless degradation mode sheds it (breaker open or the
           accept queue is backed up: readahead spends budget and wire
           on speculation exactly when both are scarce). *)
        let backed_up = 2 * Queue.length st.q >= p.controls.queue_cap in
        if
          p.controls.degradation
          && ((not (Net.remote_available st.net)) || backed_up)
        then count st "serving.readahead_shed"
        else
          for i = 1 to p.readahead do
            let ra = g + (i * Memstore.page_size) in
            if Hashtbl.mem ts.registered ra && not (Lru.mem ts.lru ra) then begin
              with_net st (fun () ->
                  Net.fetch_object_prefetched st.net ~key:ra
                    ~bytes:Memstore.page_size);
              insert_resident st ts ra wk
            end
          done
      end
    end;
    Sink.cat_exit st.sink
  end;
  (* Materialize the response: read the value into the reply. *)
  wk (words * cm.Cost_model.local_access);
  let sum = ref ts.s_ck in
  for w = 0 to words - 1 do
    sum := (!sum + Memstore.load st.store ~addr:(addr + (w * 8)) ~size:8)
           land ck_mask
  done;
  ts.s_ck <- !sum;
  !core

(* ---- admission control and load shedding (the door) -------------------- *)

let admit_cycles = 200

let share st ts =
  max 1 (st.p.controls.queue_cap * ts.tn.weight / st.total_weight)

let pick_tenant st =
  let r = Rng.int st.trng st.total_weight in
  let n = Array.length st.ts in
  let rec go i acc =
    let ts = st.ts.(i) in
    let acc = acc + ts.tn.weight in
    if r < acc || i = n - 1 then ts else go (i + 1) acc
  in
  go 0 0

let admit st ~arrived =
  let p = st.p in
  let c = p.controls in
  (* The dispatch decision itself costs CPU: shedding is cheap, not
     free. *)
  Sched.work admit_cycles;
  let ts = pick_tenant st in
  ts.s_offered <- ts.s_offered + 1;
  count st "serving.offered";
  let key = Zipf.sample ts.zipf st.krng in
  let g = grain_of st (addr_of ts p key) in
  let qlen = Queue.length st.q in
  let detail reason =
    Printf.sprintf "tenant=%s key=%d qlen=%d %s" ts.tn.tn_name key qlen reason
  in
  if
    c.shedding
    && (not c.degradation)
    && (not (Net.remote_available st.net))
    && Hashtbl.mem ts.registered g
    && not (Lru.mem ts.lru g)
  then begin
    (* The breaker is open and this request would need the remote:
       shed it at the door. Residents keep flowing. With degradation
       enabled the request is admitted instead and served stale from
       the last locally known bytes (the better answer when one is
       available). *)
    ts.s_shed <- ts.s_shed + 1;
    count st "serving.shed";
    Sink.shed_event st.sink ~kind:"shed" ~detail:(detail "breaker_open")
  end
  else if c.shedding && 2 * qlen >= c.queue_cap && ts.queued >= share st ts
  then begin
    (* Queue pressure: hold each tenant to its weighted share. *)
    ts.s_throttled <- ts.s_throttled + 1;
    count st "serving.throttled";
    Sink.shed_event st.sink ~kind:"throttle" ~detail:(detail "over_share")
  end
  else if c.admission && qlen >= c.queue_cap then begin
    ts.s_rejected <- ts.s_rejected + 1;
    count st "serving.rejected";
    Sink.shed_event st.sink ~kind:"reject" ~detail:(detail "queue_full")
  end
  else if
    c.admission
    && ((qlen + Sched.runnable_count st.sched) * st.ewma)
       + max 0 (Clock.cycles st.clock - Sched.now ())
       > c.deadline
  then begin
    (* Deadline-infeasible: predicted wait is the CPU backlog (queue
       plus runnable tasks, times the observed per-request core cost)
       plus the wire backlog (how far the serialized fabric timeline
       runs ahead of core time) — whichever resource is the bottleneck,
       by the time this request reached the head of the line its
       deadline would already be gone. *)
    ts.s_rejected <- ts.s_rejected + 1;
    count st "serving.rejected";
    Sink.shed_event st.sink ~kind:"reject" ~detail:(detail "deadline")
  end
  else begin
    ts.s_admitted <- ts.s_admitted + 1;
    count st "serving.admitted";
    ts.queued <- ts.queued + 1;
    let tok =
      match st.sp with
      | Some sp ->
          Sink.op_begin st.sink ~cls:ts.idx;
          Some (Span.save sp)
      | None -> None
    in
    Queue.push { rq = ts; key; arrived; enq = Sched.now (); tok } st.q;
    let ql = Queue.length st.q in
    if ql > st.maxq then st.maxq <- ql;
    ignore (Sched.unpark st.sched 1)
  end

(* Open-loop generator: arrivals live on an absolute timeline — a
   saturated core delays their processing but never their generation,
   which is exactly what makes the no-controls latency curve diverge
   past the knee. *)
let dispatcher st () =
  let mean = 1_000_000.0 /. st.p.rate in
  let next = ref 0 in
  for _ = 1 to st.p.requests do
    let gap = max 1 (int_of_float (Rng.exponential st.arng ~mean)) in
    next := !next + gap;
    let now = Sched.now () in
    if !next > now then Sched.block (!next - now);
    admit st ~arrived:!next
  done;
  st.done_ <- true;
  ignore (Sched.unpark_all st.sched)

let rec worker st () =
  match Queue.take_opt st.q with
  | None -> if not st.done_ then begin Sched.park (); worker st () end
  | Some req ->
      let ts = req.rq in
      ts.queued <- ts.queued - 1;
      let now = Sched.now () in
      let c = st.p.controls in
      if c.shedding && now - req.arrived > c.deadline then begin
        (* Expired in the queue: serving it now is useless work that
           only delays everyone behind it. *)
        (match (st.sp, req.tok) with
        | Some sp, Some tok ->
            Span.restore sp tok ~queued:(now - req.enq);
            Sink.op_end st.sink
        | _ -> ());
        ts.s_shed <- ts.s_shed + 1;
        count st "serving.shed";
        Sink.shed_event st.sink ~kind:"shed"
          ~detail:
            (Printf.sprintf "tenant=%s key=%d waited=%d reason=expired"
               ts.tn.tn_name req.key (now - req.arrived));
        worker st ()
      end
      else begin
        (match (st.sp, req.tok) with
        | Some sp, Some tok -> Span.restore sp tok ~queued:(now - req.enq)
        | _ -> ());
        let core = serve st req in
        (match st.sp with Some _ -> Sink.op_end st.sink | None -> ());
        let lat = Sched.now () - req.arrived in
        H.record ts.s_lat lat;
        ts.s_completed <- ts.s_completed + 1;
        count st "serving.completed";
        if lat <= c.deadline then begin
          ts.s_good <- ts.s_good + 1;
          count st "serving.good"
        end;
        st.ewma <- ((7 * st.ewma) + core) / 8;
        worker st ()
      end

(* ---- results ------------------------------------------------------------ *)

type result = {
  rp : params;
  duration : int;
  stats : tenant_stats list;
  fleet : H.t;
  goodput : float;
  max_queue : int;
  clock : Clock.t;
  sink : Sink.t;
}

let run ?(spans = false) ?flight p =
  if p.value_size <= 0 || p.value_size mod 8 <> 0 then
    invalid_arg "Serving.run: value_size must be a positive multiple of 8";
  if Memstore.page_size mod p.value_size <> 0 then
    invalid_arg "Serving.run: value_size must divide the page size";
  if not (p.rate > 0.0 && Float.is_finite p.rate) then
    invalid_arg "Serving.run: rate must be positive and finite";
  if p.requests < 1 then invalid_arg "Serving.run: requests < 1";
  if p.tenants = [] then invalid_arg "Serving.run: no tenants";
  if p.connections < 1 then invalid_arg "Serving.run: connections < 1";
  if p.replicas < 1 || p.ack < 1 || p.ack > p.replicas then
    invalid_arg "Serving.run: need 1 <= ack <= replicas";
  let spans = spans || flight <> None in
  let clock = Clock.create () in
  let sched = Sched.create () in
  let cm = Cost_model.default in
  let store = Memstore.create () in
  let faults = Faults.create ~seed:p.fault_seed p.faults in
  let cluster =
    Cluster.create_opt ~seed:p.fault_seed ~clock ~store ~replicas:p.replicas
      ~ack:p.ack ~faults:p.faults ()
  in
  let net =
    Net.create ~faults ?cluster cm clock
      (match p.backend with Fastswap -> Net.Rdma | Trackfm | Aifm -> Net.Tcp)
  in
  (* Backoff and outage waits release the core (block-with-yield). *)
  Net.set_stall_handler net (fun ~cycles -> ignore (Sched.try_block cycles));
  let op_classes = List.mapi (fun i t -> (i, t.tn_name)) p.tenants in
  let sink =
    if spans then
      Sink.recording ~trace:false ~series_interval:0 ~spans:true ~op_classes
        ~span_now:(fun () -> Sched.time sched)
        clock
    else Sink.nop
  in
  (match flight with
  | Some (path, meta) -> Sink.set_flight_recorder sink ~path ~meta
  | None -> ());
  Sink.attach_net sink net;
  (match cluster with Some cl -> Sink.attach_cluster sink cl | None -> ());
  let sp = Sink.spans sink in
  (match sp with
  | Some spn ->
      Sched.set_switch_hooks sched
        (Some
           {
             Sched.save = (fun () -> Span.save spn);
             restore = (fun ~token ~queued -> Span.restore spn token ~queued);
           })
  | None -> ());
  let gsz = grain_size p in
  let ts =
    Array.of_list
      (List.mapi
         (fun i tn ->
           if tn.keys <= 0 || tn.weight <= 0 || tn.budget <= 0 then
             invalid_arg "Serving.run: tenant needs keys/weight/budget > 0";
           if not (tn.skew > 0.0 && Float.is_finite tn.skew) then
             invalid_arg "Serving.run: tenant skew must be positive and finite";
           {
             tn;
             idx = i;
             base = (i + 1) * tenant_stride;
             zipf = Zipf.create ~n:tn.keys ~skew:tn.skew;
             lru = Lru.create ();
             cap = max 1 (tn.budget / gsz);
             registered = Hashtbl.create 1024;
             queued = 0;
             s_offered = 0;
             s_admitted = 0;
             s_completed = 0;
             s_degraded = 0;
             s_rejected = 0;
             s_shed = 0;
             s_throttled = 0;
             s_hits = 0;
             s_misses = 0;
             s_cold = 0;
             s_evict = 0;
             s_good = 0;
             s_lat = H.create ();
             s_ck = 0;
           })
         p.tenants)
  in
  let st =
    {
      p;
      cm;
      clock;
      sched;
      net;
      sink;
      sp;
      store;
      q = Queue.create ();
      ts;
      total_weight =
        List.fold_left (fun a t -> a + t.weight) 0 p.tenants;
      arng = Rng.create p.seed;
      trng = Rng.create (p.seed + 7919);
      krng = Rng.create (p.seed + 104729);
      done_ = false;
      ewma = p.service_cycles;
      maxq = 0;
    }
  in
  Sched.spawn sched (dispatcher st);
  for _ = 1 to p.connections do
    Sched.spawn sched (fun () -> worker st ())
  done;
  let duration = Sched.run sched in
  Sink.final_sample sink;
  let stats =
    Array.to_list
      (Array.map
         (fun t ->
           {
             tenant = t.tn;
             offered = t.s_offered;
             admitted = t.s_admitted;
             completed = t.s_completed;
             degraded = t.s_degraded;
             rejected = t.s_rejected;
             shed = t.s_shed;
             throttled = t.s_throttled;
             hits = t.s_hits;
             misses = t.s_misses;
             cold = t.s_cold;
             evictions = t.s_evict;
             good = t.s_good;
             latency = t.s_lat;
             checksum = t.s_ck;
           })
         ts)
  in
  let fleet = H.merge (List.map (fun s -> s.latency) stats) in
  let good = List.fold_left (fun a s -> a + s.good) 0 stats in
  let goodput =
    if duration = 0 then 0.0
    else float_of_int good *. 1_000_000.0 /. float_of_int duration
  in
  { rp = p; duration; stats; fleet; goodput; max_queue = st.maxq; clock; sink }

let hist_json h =
  let pct p =
    match H.percentile_opt h p with Some v -> Json.Int v | None -> Json.Null
  in
  Json.Obj
    [
      ("count", Json.Int (H.count h));
      ("min", Json.Int (H.min_value h));
      ("p50", pct 50.0);
      ("p99", pct 99.0);
      ("p999", pct 99.9);
      ("max", Json.Int (H.max_value h));
    ]

let result_json r =
  let p = r.rp in
  let c = p.controls in
  Json.Obj
    [
      ("kind", Json.String "trackfm-serving");
      ("version", Json.Int 1);
      ("backend", Json.String (backend_name p.backend));
      ("rate_per_mcyc", Json.Float p.rate);
      ("requests", Json.Int p.requests);
      ("service_cycles", Json.Int p.service_cycles);
      ("value_size", Json.Int p.value_size);
      ("connections", Json.Int p.connections);
      ("readahead", Json.Int p.readahead);
      ("seed", Json.Int p.seed);
      ( "controls",
        Json.Obj
          [
            ("admission", Json.Bool c.admission);
            ("shedding", Json.Bool c.shedding);
            ("degradation", Json.Bool c.degradation);
            ("queue_cap", Json.Int c.queue_cap);
            ("deadline", Json.Int c.deadline);
          ] );
      ("faults", Json.String (Faults.to_string p.faults));
      ("fault_seed", Json.Int p.fault_seed);
      ("replicas", Json.Int p.replicas);
      ("ack", Json.Int p.ack);
      ("duration", Json.Int r.duration);
      (* Scaled to an integer so the golden diff never depends on float
         formatting. *)
      ( "goodput_milli_per_mcyc",
        Json.Int (int_of_float ((r.goodput *. 1000.0) +. 0.5)) );
      ("max_queue", Json.Int r.max_queue);
      ( "tenants",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("name", Json.String s.tenant.tn_name);
                   ("weight", Json.Int s.tenant.weight);
                   ("keys", Json.Int s.tenant.keys);
                   ("budget", Json.Int s.tenant.budget);
                   ("offered", Json.Int s.offered);
                   ("admitted", Json.Int s.admitted);
                   ("completed", Json.Int s.completed);
                   ("degraded", Json.Int s.degraded);
                   ("rejected", Json.Int s.rejected);
                   ("shed", Json.Int s.shed);
                   ("throttled", Json.Int s.throttled);
                   ("hits", Json.Int s.hits);
                   ("misses", Json.Int s.misses);
                   ("cold", Json.Int s.cold);
                   ("evictions", Json.Int s.evictions);
                   ("good", Json.Int s.good);
                   ("checksum", Json.Int s.checksum);
                   ("latency", hist_json s.latency);
                 ])
             r.stats) );
      ("fleet", hist_json r.fleet);
      ( "counters",
        Json.Obj
          (List.map (fun (k, v) -> (k, Json.Int v)) (Clock.counters r.clock))
      );
    ]
