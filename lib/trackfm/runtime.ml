let log2 n =
  let rec go k v = if v <= 1 then k else go (k + 1) (v / 2) in
  go 0 n

(* Direct-mapped model of the data cache lines holding object state table
   entries: 4096 entries of 8 B each (32 KiB), enough that hot loops hit
   and pointer-chasing workloads miss — giving Table 1's cached/uncached
   split without a full cache simulator. *)
let meta_cache_slots = 4096

(* Counter handles, resolved once here instead of hashing the name on
   every guard. *)
let c_mallocs = Clock.counter "tfm.mallocs"
let c_state_table_misses = Clock.counter "tfm.state_table_misses"
let c_bytes_in = Clock.counter "net.bytes_in"
let c_bytes_out = Clock.counter "net.bytes_out"
let c_custody_skips = Clock.counter "tfm.custody_skips"
let c_fast_guards = Clock.counter "tfm.fast_guards"
let c_slow_guards = Clock.counter "tfm.slow_guards"
let c_page_accesses = Clock.counter "tfm.page_accesses"
let c_chunk_inits = Clock.counter "tfm.chunk_inits"
let c_boundary_checks = Clock.counter "tfm.boundary_checks"
let c_locality_guards = Clock.counter "tfm.locality_guards"

(* The object a chunked loop holds pinned: class [cur_cls] (-1 while
   none is pinned) and object id [cur_id]. *)
type chunk_state = {
  mutable cur_cls : int;
  mutable cur_id : int;
  mutable stride_bytes : int;
}

let no_chunk () = { cur_cls = -1; cur_id = 0; stride_bytes = 0 }

(* One far-memory size class: its own pool (budget share), allocator range
   and object-size exponent. The default configuration has exactly one. *)
type size_class = {
  max_alloc : int; (* allocations up to this many bytes land here *)
  pool : Pool.t;
  alloc : Region_alloc.t;
  osize_log2 : int;
  miss_prefetcher : Prefetcher.t;
}

type t = {
  cost : Cost_model.t;
  clock : Clock.t;
  store : Memstore.t;
  classes : size_class array;
  use_state_table : bool;
  prefetch : bool;
  prefetch_depth : int;
  meta_cache : int array;
  mutable chunks : chunk_state array; (* indexed by chunk handle *)
  mutable telemetry : Telemetry.Sink.t;
  (* Hybrid data plane: accesses the route pass moved to the page path
     swap against this Fastswap-style pager instead of taking a guard.
     Created lazily on the first page access, so unrouted programs never
     construct (or pay for) it; shares the run's clock, fault injector
     and cluster with the guard plane — one machine, two mechanisms.
     The full local budget is visible to it: the unified local-memory
     model, where the checker's exactly-one guarantee (each address
     range is owned by exactly one mechanism) keeps the two planes from
     double-caching the same data. *)
  faults : Faults.t;
  cluster : Cluster.t option;
  local_budget : int;
  mutable swap : Fastswap.Swap.t option;
}

(* AIFM runs on Shenango's TCP stack. *)
let backend = Net.Tcp

let make_class ?policy ?telemetry ?faults ?cluster cost clock idx ~max_alloc
    ~object_size ~budget =
  let net = Net.create ?faults ?cluster cost clock backend in
  (* Slow-path guards degrade to block-with-yield: transport stalls
     (retry backoff, open-breaker waits) release the core when the
     guard runs inside a Shenango task instead of spinning on it. *)
  Net.set_stall_handler net (fun ~cycles ->
      ignore (Shenango.Sched.try_block cycles));
  let osize_log2 = log2 object_size in
  let pool =
    Pool.create ?policy ?telemetry
      ~addr_of_id:(fun id -> Nc_ptr.class_base idx + (id lsl osize_log2))
      cost clock ~net ~object_size ~local_budget:budget
  in
  {
    max_alloc;
    pool;
    alloc = Region_alloc.create ~base:(Nc_ptr.class_base idx);
    osize_log2;
    miss_prefetcher = Prefetcher.create pool ();
  }

let create ?(use_state_table = true) ?(prefetch = true) ?size_classes ?policy
    ?(telemetry = Telemetry.Sink.nop) ?(faults = Faults.disabled) ?cluster cost
    clock store ~object_size ~local_budget =
  let specs =
    match size_classes with
    | None | Some [] -> [ (max_int, object_size, 1.0) ]
    | Some specs ->
        if List.length specs > 4 then
          invalid_arg "Runtime.create: at most 4 size classes";
        let rec last = function
          | [ (m, _, _) ] -> m
          | _ :: rest -> last rest
          | [] -> assert false
        in
        if last specs <> max_int then
          invalid_arg
            "Runtime.create: the final size class must be a catch-all \
             (max_int)";
        specs
  in
  let classes =
    Array.of_list
      (List.mapi
         (fun idx (max_alloc, osize, share) ->
           make_class ?policy ~telemetry ~faults ?cluster cost clock idx
             ~max_alloc ~object_size:osize
             ~budget:(max osize (int_of_float (float_of_int local_budget *. share))))
         specs)
  in
  {
    cost;
    clock;
    store;
    classes;
    use_state_table;
    prefetch;
    prefetch_depth = 8;
    meta_cache = Array.make meta_cache_slots (-1);
    chunks = [||];
    telemetry;
    faults;
    cluster;
    local_budget;
    swap = None;
  }

let telemetry t = t.telemetry

let set_telemetry t sink =
  t.telemetry <- sink;
  Array.iter (fun c -> Pool.set_telemetry c.pool sink) t.classes

let pool t = t.classes.(0).pool
let pools t = Array.to_list (Array.map (fun c -> c.pool) t.classes)
let cost t = t.cost
let clock t = t.clock
let object_size t = Pool.object_size t.classes.(0).pool
let size_class_count t = Array.length t.classes

(* [cls_of_ptr], [object_id], [metadata_lookup] and [chunk_state] are
   [@inline]: a guard or chunk access that hits runs them in place, and
   only their miss and grow paths are calls. *)
let unknown_class () = invalid_arg "Runtime: pointer with unknown size class"

let[@inline] cls_of_ptr t ptr =
  let idx = Nc_ptr.size_class ptr in
  if idx >= Array.length t.classes then unknown_class () else idx

let[@inline] object_id (c : size_class) ptr =
  Nc_ptr.object_id ptr ~object_size_log2:c.osize_log2

(* -- allocation ---------------------------------------------------------- *)

let malloc_cost = 60

let class_for_size t n =
  let rec go i =
    if i = Array.length t.classes - 1 then i
    else if n <= t.classes.(i).max_alloc then i
    else go (i + 1)
  in
  go 0

let tfm_malloc t n =
  (* Objects materialize lazily on first access (the pool's analogue of an
     anonymous first-touch fault), so huge allocations are cheap and fresh
     memory never crosses the network. *)
  Clock.tick t.clock malloc_cost;
  Clock.add t.clock c_mallocs 1;
  let c = t.classes.(class_for_size t n) in
  Region_alloc.alloc c.alloc n

let tfm_calloc t count size =
  (* The store reads as zero before first write, so calloc is malloc. *)
  tfm_malloc t (max 1 (count * size))

let tfm_free t ptr =
  Clock.tick t.clock malloc_cost;
  let c = t.classes.(cls_of_ptr t ptr) in
  let cls_bytes = Region_alloc.size_of c.alloc ptr in
  Region_alloc.free c.alloc ptr;
  (* Objects fully covered by the dead block are released back to the
     pool: their data can never be read again, so neither the local
     budget nor a remote copy needs to be kept. Partially covered edge
     objects may still hold neighbouring allocations and stay. *)
  let osize = 1 lsl c.osize_log2 in
  let first_full = (Nc_ptr.offset ptr + osize - 1) lsr c.osize_log2 in
  let last_full = ((Nc_ptr.offset ptr + cls_bytes) lsr c.osize_log2) - 1 in
  for id = first_full to last_full do
    Pool.discard c.pool id
  done

let tfm_realloc t ptr n =
  if ptr = 0 then tfm_malloc t n
  else begin
    let c = t.classes.(cls_of_ptr t ptr) in
    let old_req = Region_alloc.requested_size_of c.alloc ptr in
    let cls_size = Region_alloc.size_of c.alloc ptr in
    if n <= cls_size then ptr
    else begin
      let fresh = tfm_malloc t n in
      let len = min old_req n in
      Memstore.blit t.store ~src:ptr ~dst:fresh ~len;
      (* Copy cost: cache-line granularity moves. *)
      Clock.tick t.clock (len / 64 * 8);
      tfm_free t ptr;
      fresh
    end
  end

let state_table_bytes t =
  (* Entries cover each class's heap span at 8 B per object. *)
  Array.to_list t.classes
  |> List.mapi (fun idx (c : size_class) ->
         let span = Region_alloc.high_watermark c.alloc - Nc_ptr.class_base idx in
         (span lsr c.osize_log2) * 8)
  |> List.fold_left ( + ) 0

(* -- guards -------------------------------------------------------------- *)

(* Consult the (modelled) state table entry for an object; charges the
   cache-miss penalty on a metadata cache miss, and the extra dependent
   load when the state table optimization is ablated. Class and id are
   combined so entries from different classes do not alias. *)
let meta_cache_miss t slot key =
  t.meta_cache.(slot) <- key;
  Clock.tick t.clock t.cost.Cost_model.cache_miss_penalty;
  Clock.add t.clock c_state_table_misses 1

let[@inline] metadata_lookup t cls_idx id =
  let key = (id * 4) + cls_idx in
  let slot = key land (meta_cache_slots - 1) in
  if t.meta_cache.(slot) <> key then meta_cache_miss t slot key;
  if not t.use_state_table then
    (* Without the table: find the object, then dereference its metadata —
       one more dependent memory reference on every guard. *)
    Clock.tick t.clock t.cost.Cost_model.metadata_indirection

let localize_for_access (c : size_class) id ~write =
  Pool.ensure_local c.pool id;
  if write then Pool.mark_dirty c.pool id

let guard t ~ptr ~size ~write =
  let tel = t.telemetry in
  let active = Telemetry.Sink.is_active tel in
  let c0 = Clock.cycles t.clock in
  let bin0 = if active then Clock.value t.clock c_bytes_in else 0 in
  let bout0 = if active then Clock.value t.clock c_bytes_out else 0 in
  if not (Nc_ptr.is_tracked ptr) then begin
    Telemetry.Sink.cat_enter tel Telemetry.Span.Guard_fast;
    Clock.tick t.clock t.cost.Cost_model.custody_check;
    Clock.add t.clock c_custody_skips 1;
    Telemetry.Sink.cat_exit tel;
    if active then
      Telemetry.Sink.guard_event tel ~path:`Custody ~write
        ~cycles:(Clock.cycles t.clock - c0) ~bytes_in:0 ~bytes_out:0
  end
  else begin
    (* The guard opens as a fast-path frame and reclassifies once the
       miss is known, so metadata-lookup cycles land with the outcome
       they led to. *)
    Telemetry.Sink.cat_enter tel Telemetry.Span.Guard_fast;
    let cls_idx = cls_of_ptr t ptr in
    let c = t.classes.(cls_idx) in
    let id = object_id c ptr in
    metadata_lookup t cls_idx id;
    (* A hit reads the object's metadata byte once and writes it once
       (hot, and dirty on a write); a miss takes the pool's slow path. *)
    let m = Pool.probe c.pool id in
    let fast = Pool.resident m in
    if fast then begin
      Clock.tick t.clock
        (if write then t.cost.Cost_model.fast_guard_write
         else t.cost.Cost_model.fast_guard_read);
      Clock.add t.clock c_fast_guards 1;
      Pool.touch c.pool id m ~write
    end
    else begin
      Telemetry.Sink.cat_reclass tel Telemetry.Span.Guard_slow;
      Clock.tick t.clock
        (if write then t.cost.Cost_model.slow_guard_write_local
         else t.cost.Cost_model.slow_guard_read_local);
      Clock.add t.clock c_slow_guards 1;
      (* The AIFM backend's runtime stride prefetcher watches the miss
         stream and runs ahead of regular strided access patterns. *)
      if t.prefetch then Prefetcher.access c.miss_prefetcher id;
      localize_for_access c id ~write
    end;
    (* An access that straddles an object boundary needs both halves. *)
    let id_last = object_id c (ptr + size - 1) in
    if id_last <> id then localize_for_access c id_last ~write;
    Telemetry.Sink.cat_exit tel;
    if active then
      Telemetry.Sink.guard_event tel
        ~path:(if fast then `Fast else `Slow)
        ~write
        ~cycles:(Clock.cycles t.clock - c0)
        ~bytes_in:(Clock.value t.clock c_bytes_in - bin0)
        ~bytes_out:(Clock.value t.clock c_bytes_out - bout0)
  end

(* -- hybrid page path ---------------------------------------------------- *)

let swap_of t =
  match t.swap with
  | Some s -> s
  | None ->
      let s =
        Fastswap.Swap.create ~faults:t.faults ?cluster:t.cluster
          ~telemetry:t.telemetry t.cost t.clock ~local_budget:t.local_budget
      in
      t.swap <- Some s;
      s

let page_access t ~ptr ~size ~write =
  let tel = t.telemetry in
  let active = Telemetry.Sink.is_active tel in
  let c0 = Clock.cycles t.clock in
  if not (Nc_ptr.is_tracked ptr) then begin
    (* Same custody filter as [guard]: page calls inherit guards' safety
       on untracked pointers (stack, globals), which is what lets the
       route pass move Mixed/Unknown sites under profile evidence. *)
    Telemetry.Sink.cat_enter tel Telemetry.Span.Guard_fast;
    Clock.tick t.clock t.cost.Cost_model.custody_check;
    Clock.add t.clock c_custody_skips 1;
    Telemetry.Sink.cat_exit tel;
    if active then
      Telemetry.Sink.guard_event tel ~path:`Custody ~write
        ~cycles:(Clock.cycles t.clock - c0) ~bytes_in:0 ~bytes_out:0
  end
  else begin
    let bin0 = if active then Clock.value t.clock c_bytes_in else 0 in
    let bout0 = if active then Clock.value t.clock c_bytes_out else 0 in
    (* The custody check still runs — the compiled test is the same
       either way; only the miss mechanism differs. *)
    Clock.tick t.clock t.cost.Cost_model.custody_check;
    Clock.add t.clock c_page_accesses 1;
    Fastswap.Swap.access (swap_of t) ~addr:ptr ~size ~write;
    if active then
      Telemetry.Sink.guard_event tel ~path:`Paged ~write
        ~cycles:(Clock.cycles t.clock - c0)
        ~bytes_in:(Clock.value t.clock c_bytes_in - bin0)
        ~bytes_out:(Clock.value t.clock c_bytes_out - bout0)
  end

let page_accesses t = Clock.value t.clock c_page_accesses

(* -- loop chunking ------------------------------------------------------- *)

(* Chunk_pass numbers handles densely from 0, so the state table grows to
   the module's chunk-site count. *)
let grow_chunks t handle =
  let n = Array.length t.chunks in
  t.chunks <-
    Array.init (max (handle + 1) (2 * n)) (fun h ->
        if h < n then t.chunks.(h) else no_chunk ())

let[@inline] chunk_state t handle =
  if handle >= Array.length t.chunks then grow_chunks t handle;
  t.chunks.(handle)

let unpin_cur t s =
  if s.cur_cls >= 0 then begin
    Pool.unpin t.classes.(s.cur_cls).pool s.cur_id;
    s.cur_cls <- -1
  end

let chunk_init t ~handle ~stride_bytes =
  let s = chunk_state t handle in
  (* A dangling pin can remain if a previous loop exited via an
     unstructured edge; release it. *)
  unpin_cur t s;
  s.stride_bytes <- stride_bytes;
  (* Loop-entry runtime call; the first access then crosses into its
     object and pays the locality invariant guard, so the total entry
     cost is Cost_eq.chunk_entry_cost. *)
  Clock.tick t.clock 130;
  Clock.add t.clock c_chunk_inits 1

let issue_prefetch t (c : size_class) id stride_objects =
  if t.prefetch && stride_objects <> 0 then
    for k = 1 to t.prefetch_depth do
      let next = id + (k * stride_objects) in
      if next >= 0 then Pool.mark_prefetched c.pool next
    done

let chunk_access t ~handle ~ptr ~size ~write =
  if not (Nc_ptr.is_tracked ptr) then begin
    Telemetry.Sink.cat_enter t.telemetry Telemetry.Span.Guard_fast;
    Clock.tick t.clock t.cost.Cost_model.custody_check;
    Clock.add t.clock c_custody_skips 1;
    Telemetry.Sink.cat_exit t.telemetry;
    if Telemetry.Sink.is_active t.telemetry then
      Telemetry.Sink.guard_event t.telemetry ~path:`Custody ~write
        ~cycles:t.cost.Cost_model.custody_check ~bytes_in:0 ~bytes_out:0
  end
  else begin
    let s = chunk_state t handle in
    let cls_idx = cls_of_ptr t ptr in
    let c = t.classes.(cls_idx) in
    let id = object_id c ptr in
    (* Per-access overhead is fast-path work; a boundary crossing that
       has to pull the object reclassifies to the slow path below. *)
    Telemetry.Sink.cat_enter t.telemetry Telemetry.Span.Guard_fast;
    Clock.tick t.clock t.cost.Cost_model.boundary_check;
    Clock.add t.clock c_boundary_checks 1;
    if s.cur_cls <> cls_idx || s.cur_id <> id then begin
      (* Object boundary crossed: the locality invariant guard. Like
         any guard it resolves the new object's state-table entry, so
         it shares the metadata-cache model. *)
      let tel = t.telemetry in
      let active = Telemetry.Sink.is_active tel in
      let c0 = Clock.cycles t.clock in
      let bin0 = if active then Clock.value t.clock c_bytes_in else 0 in
      let bout0 = if active then Clock.value t.clock c_bytes_out else 0 in
      unpin_cur t s;
      metadata_lookup t cls_idx id;
      Clock.tick t.clock t.cost.Cost_model.locality_guard;
      Clock.add t.clock c_locality_guards 1;
      let m = Pool.probe c.pool id in
      if Pool.resident m then Pool.touch c.pool id m ~write:false
      else begin
        Telemetry.Sink.cat_reclass tel Telemetry.Span.Guard_slow;
        Pool.ensure_local c.pool id
      end;
      Pool.pin c.pool id;
      s.cur_cls <- cls_idx;
      s.cur_id <- id;
      let stride_objects =
        if s.stride_bytes = 0 then 0
        else if s.stride_bytes > 0 then
          max 1 (s.stride_bytes asr c.osize_log2)
        else min (-1) (-(-s.stride_bytes asr c.osize_log2))
      in
      issue_prefetch t c id stride_objects;
      if active then
        Telemetry.Sink.guard_event tel ~path:`Locality ~write
          ~cycles:(Clock.cycles t.clock - c0)
          ~bytes_in:(Clock.value t.clock c_bytes_in - bin0)
          ~bytes_out:(Clock.value t.clock c_bytes_out - bout0)
    end;
    if write then Pool.mark_dirty c.pool id;
    let id_last = object_id c (ptr + size - 1) in
    if id_last <> id then localize_for_access c id_last ~write;
    Telemetry.Sink.cat_exit t.telemetry
  end

let chunk_end t ~handle =
  if handle < Array.length t.chunks then unpin_cur t t.chunks.(handle)

(* -- introspection ------------------------------------------------------- *)

let fast_guards t = Clock.value t.clock c_fast_guards
let slow_guards t = Clock.value t.clock c_slow_guards
