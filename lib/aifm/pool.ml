(* Metadata bits, one byte per object id. An id with byte 0 has never been
   allocated ("absent"): treated as remote-and-empty if ever localized. *)
let bit_exists = 0x01
let bit_local = 0x02
let bit_dirty = 0x04
let bit_hot = 0x08
let bit_prefetched = 0x10
let bit_swapped = 0x20 (* a remote copy exists *)

(* Counter handles for the fetch and eviction paths. *)
let c_writebacks = Clock.counter "aifm.writebacks"
let c_evictions = Clock.counter "aifm.evictions"
let c_evictions_deferred = Clock.counter "aifm.evictions_deferred"
let c_materialized = Clock.counter "aifm.materialized"
let c_demand_fetches = Clock.counter "aifm.demand_fetches"

module Ring = Tfm_util.Int_ring

exception Out_of_local_memory

type policy = Clock_hand | Fifo

type t = {
  cost : Cost_model.t;
  clock : Clock.t;
  net : Net.t;
  policy : policy;
  osize : int;
  addr_of_id : int -> int;
  budget : int;
  mutable meta : Bytes.t; (* metadata bits, one byte per object id *)
  mutable used : int;
  mutable nlocal : int;
  clock_queue : Ring.t; (* CLOCK candidates, oldest first; may be stale *)
  mutable pins : int array; (* pin count per object id, grown like [meta] *)
  mutable telemetry : Telemetry.Sink.t;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let create ?(policy = Clock_hand) ?(telemetry = Telemetry.Sink.nop)
    ?addr_of_id cost clock ~net ~object_size ~local_budget =
  if not (is_pow2 object_size && object_size >= 16 && object_size <= 65536)
  then invalid_arg "Pool.create: object_size";
  Telemetry.Sink.attach_net telemetry net;
  {
    cost;
    clock;
    net;
    policy;
    osize = object_size;
    (* Replication keys objects by their main-store base address; the
       default covers pools whose id space is the address space scaled
       by the object size (tests, simple heaps). *)
    addr_of_id =
      (match addr_of_id with
      | Some f -> f
      | None -> fun id -> id * object_size);
    budget = local_budget;
    meta = Bytes.make 4096 '\000';
    used = 0;
    nlocal = 0;
    clock_queue = Ring.create ();
    pins = Array.make 4096 0;
    telemetry;
  }

let telemetry t = t.telemetry

let set_telemetry t sink =
  t.telemetry <- sink;
  Telemetry.Sink.attach_net sink t.net

let object_size t = t.osize
let local_budget t = t.budget
let local_used t = t.used
let local_count t = t.nlocal

(* The accessors below are [@inline] so that a guard's hit path is a
   probe of [meta] inside the guard; growing the tables and every miss
   path stay out of line. *)
let grow_meta t id =
  let n = Bytes.length t.meta in
  let meta' = Bytes.make (max (id + 1) (n * 2)) '\000' in
  Bytes.blit t.meta 0 meta' 0 n;
  t.meta <- meta'

let[@inline] get_meta t id =
  if id < Bytes.length t.meta then Char.code (Bytes.get t.meta id) else 0

(* [Char.chr m], with its range check written out so that it inlines. *)
let[@inline] set_meta t id m =
  if id >= Bytes.length t.meta then grow_meta t id;
  if m land lnot 0xff <> 0 then invalid_arg "Char.chr";
  Bytes.set t.meta id (Char.unsafe_chr m)

let[@inline] pinned t id = id < Array.length t.pins && t.pins.(id) > 0

let pin t id =
  let n = Array.length t.pins in
  if id >= n then begin
    let pins = Array.make (max (id + 1) (n * 2)) 0 in
    Array.blit t.pins 0 pins 0 n;
    t.pins <- pins
  end;
  t.pins.(id) <- t.pins.(id) + 1

let unpin t id =
  if not (pinned t id) then invalid_arg "Pool.unpin: not pinned";
  t.pins.(id) <- t.pins.(id) - 1

let[@inline] resident m = m land bit_local <> 0
let[@inline] probe t id = get_meta t id
let[@inline] is_local t id = resident (get_meta t id)

let[@inline] touch t id m ~write =
  set_meta t id (if write then m lor bit_hot lor bit_dirty else m lor bit_hot)

(* One sweep step of the CLOCK hand, given at most [attempts] queue
   entries to look at. Returns true if something was evicted. Hot
   objects get a second chance; pinned objects are skipped (requeued) —
   this is the evacuator barrier of Section 3.3. With
   [allow_writeback:false] (remote unreachable: circuit breaker open)
   dirty objects are also skipped: their only copy cannot be pushed out,
   so the evacuator degrades to dropping clean objects. *)
let rec sweep ~allow_writeback t attempts =
  if Ring.is_empty t.clock_queue || attempts = 0 then false
  else begin
    let attempts = attempts - 1 in
    let id = Ring.pop t.clock_queue in
    let m = get_meta t id in
    if m land bit_local = 0 then sweep ~allow_writeback t attempts (* stale *)
    else if pinned t id then begin
      Ring.push t.clock_queue id;
      sweep ~allow_writeback t attempts
    end
    else if t.policy = Clock_hand && m land bit_hot <> 0 then begin
      set_meta t id (m land lnot bit_hot);
      Ring.push t.clock_queue id;
      sweep ~allow_writeback t attempts
    end
    else if (not allow_writeback) && m land bit_dirty <> 0 then begin
      Ring.push t.clock_queue id;
      sweep ~allow_writeback t attempts
    end
    else begin
      let swapped =
        if m land bit_dirty <> 0 then begin
          Net.writeback_object t.net ~key:(t.addr_of_id id) ~bytes:t.osize;
          Clock.add t.clock c_writebacks 1;
          Telemetry.Sink.writeback_event t.telemetry ~bytes:t.osize;
          bit_swapped
        end
        else m land bit_swapped
      in
      set_meta t id (bit_exists lor swapped);
      t.used <- t.used - t.osize;
      t.nlocal <- t.nlocal - 1;
      Clock.tick t.clock t.cost.Cost_model.evict_object;
      Clock.add t.clock c_evictions 1;
      Telemetry.Sink.evict_event t.telemetry;
      true
    end
  end

let evict_one_with ~allow_writeback t =
  sweep ~allow_writeback t (2 * Ring.length t.clock_queue)

let evict_one t = evict_one_with ~allow_writeback:true t

(* The evacuator's degraded mode: while the remote is unreachable it
   sheds clean objects only, and if even that fails it defers — local
   memory absorbs the overshoot, and the next pressure event after
   recovery drains it back under budget (the budget is re-checked after
   every eviction). Only a pinned-everything state with a reachable
   remote is a genuine OOM. *)
let rec evict_while_over t =
  if t.used > t.budget then begin
    let allow_writeback = Net.remote_available t.net in
    if evict_one_with ~allow_writeback t then evict_while_over t
    else if allow_writeback then raise Out_of_local_memory
    else Clock.add t.clock c_evictions_deferred 1
  end

let evict_until_fits t =
  (* Making room is charged to the eviction-stall category: resync
     orchestration, CLOCK sweeps, writeback enqueues and the eviction
     ticks themselves (transport stalls nested inside keep their own
     retry/failover attribution). The category closes on every exit. *)
  Telemetry.Sink.cat_enter t.telemetry Telemetry.Span.Evict_stall;
  match
    (* The evacuator doubles as the recovery driver: each pressure event
       advances background re-replication onto any recovering node. *)
    ignore (Net.resync_step t.net : int);
    evict_while_over t
  with
  | () -> Telemetry.Sink.cat_exit t.telemetry
  | exception e ->
      Telemetry.Sink.cat_exit t.telemetry;
      raise e

let make_local t id m =
  set_meta t id (m lor bit_exists lor bit_local lor bit_hot);
  t.used <- t.used + t.osize;
  t.nlocal <- t.nlocal + 1;
  Ring.push t.clock_queue id;
  (* The object being localized is in use by the caller (it is inside a
     guard or DerefScope): the evacuator must not pick it, and the pin
     is dropped on every exit. *)
  pin t id;
  match evict_until_fits t with
  | () -> unpin t id
  | exception e ->
      unpin t id;
      raise e

let materialize t id =
  let m = get_meta t id in
  if m land bit_local = 0 then begin
    Clock.add t.clock c_materialized 1;
    make_local t id (m lor bit_dirty)
  end

(* [ensure_local]'s miss: object [id], metadata [m], is not local. *)
let localize t id m =
  if m land bit_swapped = 0 then begin
    (* Never written (or never existed): fresh backing, no remote copy to
       fetch — the analogue of an anonymous first-touch fault. *)
    Clock.tick t.clock 50;
    Clock.add t.clock c_materialized 1;
    make_local t id (m land lnot bit_prefetched)
  end
  else begin
    (if m land bit_prefetched <> 0 then begin
       Net.fetch_object_prefetched t.net ~key:(t.addr_of_id id) ~bytes:t.osize;
       Telemetry.Sink.fetch_event t.telemetry ~bytes:t.osize ~prefetched:true
     end
     else begin
       Net.fetch_object t.net ~key:(t.addr_of_id id) ~bytes:t.osize;
       Clock.add t.clock c_demand_fetches 1;
       Telemetry.Sink.fetch_event t.telemetry ~bytes:t.osize ~prefetched:false
     end);
    make_local t id (m land lnot bit_prefetched)
  end

let[@inline] ensure_local t id =
  let m = get_meta t id in
  if resident m then set_meta t id (m lor bit_hot) else localize t id m

let[@inline] mark_dirty t id = set_meta t id (get_meta t id lor bit_dirty)

let mark_prefetched t id =
  let m = get_meta t id in
  (* Prefetching only makes sense for objects with a remote copy. *)
  if m land bit_local = 0 && m land bit_swapped <> 0 then
    set_meta t id (m lor bit_prefetched)

let discard t id =
  if not (pinned t id) then begin
    let m = get_meta t id in
    if m land bit_local <> 0 then begin
      t.used <- t.used - t.osize;
      t.nlocal <- t.nlocal - 1
    end;
    set_meta t id 0
  end
