let page_size = Memstore.page_size
let page_bits = 12

(* Per-page state bits. *)
let bit_present = 0x1
let bit_dirty = 0x2
let bit_hot = 0x4
let bit_swapped = 0x8 (* has a remote copy *)

module Ring = Tfm_util.Int_ring

(* Counter handles for the fault and reclaim paths. *)
let c_writebacks = Clock.counter "fastswap.writebacks"
let c_evictions = Clock.counter "fastswap.evictions"
let c_major_faults = Clock.counter "fastswap.major_faults"
let c_readahead_pages = Clock.counter "fastswap.readahead_pages"
let c_minor_faults = Clock.counter "fastswap.minor_faults"
let c_reclaim_deferred = Clock.counter "fastswap.reclaim_deferred"

type t = {
  cost : Cost_model.t;
  clock : Clock.t;
  net : Net.t;
  budget_pages : int;
  readahead : int;
  state : Memstore.t;
      (* page index -> bits, one byte at the page index as address: a
         lookup whose 4096-page chunk sits in Memstore's direct-mapped
         cache is one tag compare, and a page never touched reads 0 *)
  lru : Ring.t; (* second-chance candidates, oldest first; may be stale *)
  mutable present : int;
  telemetry : Telemetry.Sink.t;
}

let create ?(readahead = 0) ?(faults = Faults.disabled) ?cluster
    ?(telemetry = Telemetry.Sink.nop) cost clock ~local_budget =
  let net = Net.create ~faults ?cluster cost clock Net.Rdma in
  Telemetry.Sink.attach_net telemetry net;
  (* The kernel swap path has no green threads to yield to, but retry
     backoff and outage waits still release the (simulated) core when a
     scheduler happens to be present. *)
  Net.set_stall_handler net (fun ~cycles ->
      ignore (Shenango.Sched.try_block cycles));
  {
    cost;
    clock;
    net;
    budget_pages = max 1 (local_budget / page_size);
    readahead;
    state = Memstore.create ();
    lru = Ring.create ();
    present = 0;
    telemetry;
  }

let net t = t.net
let get_state t p = Memstore.load t.state ~addr:p ~size:1
let set_state t p s = Memstore.store t.state ~addr:p ~size:1 s

let is_present t ~addr = get_state t (addr lsr page_bits) land bit_present <> 0
let present_pages t = t.present

(* Second-chance reclaim, the kernel's approximated LRU, given at most
   [attempts] queue entries to look at. With [allow_writeback:false]
   (remote unreachable) dirty pages are skipped: their only copy cannot
   be pushed out, so reclaim degrades to dropping clean pages — the same
   backpressure absorption as the AIFM evacuator's. *)
let rec reclaim_from ~allow_writeback t attempts =
  if Ring.is_empty t.lru || attempts = 0 then false
  else begin
    let attempts = attempts - 1 in
    let p = Ring.pop t.lru in
    let s = get_state t p in
    if s land bit_present = 0 then reclaim_from ~allow_writeback t attempts
    else if s land bit_hot <> 0 then begin
      set_state t p (s land lnot bit_hot);
      Ring.push t.lru p;
      reclaim_from ~allow_writeback t attempts
    end
    else if (not allow_writeback) && s land bit_dirty <> 0 then begin
      Ring.push t.lru p;
      reclaim_from ~allow_writeback t attempts
    end
    else begin
      if s land bit_dirty <> 0 then begin
        Net.writeback_object t.net ~key:(p lsl page_bits) ~bytes:page_size;
        Clock.add t.clock c_writebacks 1
      end;
      set_state t p ((s lor bit_swapped) land lnot (bit_present lor bit_dirty));
      t.present <- t.present - 1;
      Clock.tick t.clock t.cost.Cost_model.evict_page;
      Clock.add t.clock c_evictions 1;
      true
    end
  end

let reclaim_one_with ~allow_writeback t =
  reclaim_from ~allow_writeback t (2 * Ring.length t.lru)

let rec reclaim_while_over t =
  if t.present > t.budget_pages then begin
    let allow_writeback = Net.remote_available t.net in
    if reclaim_one_with ~allow_writeback t then reclaim_while_over t
    else if allow_writeback then
      (* Nothing reclaimable: a kernel would OOM; surface it. *)
      failwith "Fastswap: local memory exhausted with nothing reclaimable"
    else
      (* Outage: every reclaimable page is dirty and the writeback path
         is down. Defer — present pages overshoot the budget until the
         remote recovers and the next reclaim drains the excess. *)
      Clock.add t.clock c_reclaim_deferred 1
  end

let reclaim_until_fits t =
  (* Reclaim work is the swap path's eviction stall; transport stalls
     nested inside keep their own retry/failover attribution. The
     category closes on every exit. *)
  Telemetry.Sink.cat_enter t.telemetry Telemetry.Span.Evict_stall;
  match
    (* The reclaim core doubles as the recovery driver (Fastswap's
       dedicated reclaim CPU): each pass advances re-replication onto
       any recovering remote node. *)
    ignore (Net.resync_step t.net : int);
    reclaim_while_over t
  with
  | () -> Telemetry.Sink.cat_exit t.telemetry
  | exception e ->
      Telemetry.Sink.cat_exit t.telemetry;
      raise e

(* A write fault maps the PTE dirty immediately (as the kernel does), so
   the map-time reclaim pass already sees the new page as unevictable
   without a writeback. Read faults and readahead map clean. *)
let map_page t p ~hot ~dirty =
  let s = get_state t p in
  set_state t p
    (s lor bit_present
    lor (if hot then bit_hot else 0)
    lor if dirty then bit_dirty else 0);
  t.present <- t.present + 1;
  Ring.push t.lru p;
  reclaim_until_fits t

let serve_fault t p ~write =
  let s = get_state t p in
  if s land bit_swapped <> 0 then begin
    (* Major fault: kernel software path plus the RDMA page read. *)
    Clock.tick t.clock t.cost.Cost_model.fastswap_fault_base;
    Net.fetch_object t.net ~key:(p lsl page_bits) ~bytes:page_size;
    Clock.add t.clock c_major_faults 1;
    map_page t p ~hot:true ~dirty:write;
    (* Optional cluster readahead of subsequent swapped-out pages.
       Suppressed while the breaker is open: speculative traffic is the
       first thing a degraded kernel sheds. *)
    for k = 1 to (if Net.remote_available t.net then t.readahead else 0) do
      let q = p + k in
      let sq = get_state t q in
      if sq land bit_swapped <> 0 && sq land bit_present = 0 then begin
        Net.fetch_object_prefetched t.net ~key:(q lsl page_bits)
          ~bytes:page_size;
        Clock.add t.clock c_readahead_pages 1;
        map_page t q ~hot:false ~dirty:false
      end
    done
  end
  else begin
    (* First touch: anonymous page allocation (minor fault). *)
    Clock.tick t.clock t.cost.Cost_model.fastswap_fault_local;
    Clock.add t.clock c_minor_faults 1;
    map_page t p ~hot:true ~dirty:write
  end

(* Page faults are the paging analogue of the guard slow path: the
   whole fault (kernel software cost, RDMA read, readahead, map-time
   reclaim) is one slow-path window on the open span. *)
let fault_page t p ~write =
  Telemetry.Sink.cat_enter t.telemetry Telemetry.Span.Guard_slow;
  match serve_fault t p ~write with
  | () -> Telemetry.Sink.cat_exit t.telemetry
  | exception e ->
      Telemetry.Sink.cat_exit t.telemetry;
      raise e

let touch t p ~write =
  let s = get_state t p in
  let s =
    if s land bit_present <> 0 then s
    else begin
      fault_page t p ~write;
      get_state t p
    end
  in
  set_state t p (s lor bit_hot lor if write then bit_dirty else 0)

let access t ~addr ~size ~write =
  let first = addr lsr page_bits in
  let last = (addr + size - 1) lsr page_bits in
  touch t first ~write;
  if last <> first then touch t last ~write
