(* Smart-pointer dereference overhead: AIFM pays an indirection and scope
   bookkeeping on every data-structure access even when the object is
   local (the paper notes this in Section 4.1). *)
let deref_cost = 25

type ctx = {
  cost : Cost_model.t;
  clock : Clock.t;
  store : Memstore.t;
  pool : Pool.t;
  alloc : Region_alloc.t;
  prefetcher : Prefetcher.t;
}

(* Remotable heap addresses start high so they never collide with the
   interpreter's stack/global segments when a context shares a store. *)
let heap_base = 1 lsl 44

let create_ctx ?(faults = Faults.disabled) ?cluster cost clock store
    ~object_size ~local_budget =
  let net = Net.create ~faults ?cluster cost clock Net.Tcp in
  (* Degrade to block-with-yield: when the smart-pointer deref runs
     inside a Shenango task, transport stalls release the core. *)
  Net.set_stall_handler net (fun ~cycles ->
      ignore (Shenango.Sched.try_block cycles));
  let pool =
    Pool.create
      ~addr_of_id:(fun id -> heap_base + (id * object_size))
      cost clock ~net ~object_size ~local_budget
  in
  let alloc = Region_alloc.create ~base:heap_base in
  let prefetcher = Prefetcher.create pool () in
  { cost; clock; store; pool; alloc; prefetcher }

let object_id ctx addr = (addr - heap_base) / Pool.object_size ctx.pool

(* Localize and pin the object containing [addr .. addr+size), run [f],
   unpin. The common case (object already local) costs one deref. *)
let with_access ctx addr size f =
  Clock.tick ctx.clock deref_cost;
  let id = object_id ctx addr in
  let id_last = object_id ctx (addr + size - 1) in
  Pool.ensure_local ctx.pool id;
  if id_last <> id then Pool.ensure_local ctx.pool id_last;
  Scope.with_object ctx.pool id f

module Array = struct
  type t = { ctx : ctx; base : int; elem_size : int; len : int }

  let create ctx ~elem_size ~len =
    if elem_size <= 0 || len < 0 then invalid_arg "Remote.Array.create";
    (* Objects materialize lazily on first access; fresh memory never
       crosses the network. *)
    let base = Region_alloc.alloc ctx.alloc (max 1 (elem_size * len)) in
    { ctx; base; elem_size; len }

  let len t = t.len
  let elem_size t = t.elem_size

  let addr t i =
    if i < 0 || i >= t.len then invalid_arg "Remote.Array: index";
    t.base + (i * t.elem_size)

  let get t i =
    let a = addr t i in
    let size = min t.elem_size 8 in
    with_access t.ctx a size (fun () ->
        Clock.tick t.ctx.clock t.ctx.cost.Cost_model.local_access;
        Memstore.load t.ctx.store ~addr:a ~size)

  let set t i v =
    let a = addr t i in
    let size = min t.elem_size 8 in
    with_access t.ctx a size (fun () ->
        Clock.tick t.ctx.clock t.ctx.cost.Cost_model.local_access;
        Pool.mark_dirty t.ctx.pool (object_id t.ctx a);
        Memstore.store t.ctx.store ~addr:a ~size v)

  let get_float t i =
    if t.elem_size < 8 then invalid_arg "Remote.Array.get_float";
    let a = addr t i in
    with_access t.ctx a 8 (fun () ->
        Clock.tick t.ctx.clock t.ctx.cost.Cost_model.local_access;
        Memstore.load_float t.ctx.store ~addr:a)

  let set_float t i x =
    if t.elem_size < 8 then invalid_arg "Remote.Array.set_float";
    let a = addr t i in
    with_access t.ctx a 8 (fun () ->
        Clock.tick t.ctx.clock t.ctx.cost.Cost_model.local_access;
        Pool.mark_dirty t.ctx.pool (object_id t.ctx a);
        Memstore.store_float t.ctx.store ~addr:a x)

  (* AIFM's iterator classes keep a raw pointer inside the current object
     and only pay the smart-pointer dereference when crossing an object
     boundary, with the stride prefetcher running ahead — the same cost
     structure TrackFM's loop chunking recovers automatically. *)
  let iter_seq_range ~is_float t ~lo ~hi f =
    let pool = t.ctx.pool in
    let clock = t.ctx.clock in
    let cur = ref (-1) in
    for i = lo to hi - 1 do
      let a = addr t i in
      let id = object_id t.ctx a in
      if id <> !cur then begin
        (match !cur with -1 -> () | old -> Pool.unpin pool old);
        Clock.tick clock deref_cost;
        Prefetcher.access t.ctx.prefetcher id;
        Pool.ensure_local pool id;
        Pool.pin pool id;
        cur := id
      end
      else Clock.tick clock 3 (* in-object boundary check *);
      Clock.tick clock t.ctx.cost.Cost_model.local_access;
      let size = min t.elem_size 8 in
      if is_float then f i (`F (Memstore.load_float t.ctx.store ~addr:a))
      else f i (`I (Memstore.load t.ctx.store ~addr:a ~size))
    done;
    match !cur with -1 -> () | old -> Pool.unpin pool old

  let iter_prefetched t f =
    iter_seq_range ~is_float:false t ~lo:0 ~hi:t.len (fun i v ->
        match v with `I n -> f i n | `F _ -> assert false)

  let iter_prefetched_float t f =
    if t.elem_size < 8 then invalid_arg "Remote.Array.iter_prefetched_float";
    iter_seq_range ~is_float:true t ~lo:0 ~hi:t.len (fun i v ->
        match v with `F x -> f i x | `I _ -> assert false)

  let fold_range_float t ~lo ~hi ~init f =
    if t.elem_size < 8 then invalid_arg "Remote.Array.fold_range_float";
    if lo < 0 || hi > t.len || lo > hi then
      invalid_arg "Remote.Array.fold_range_float: range";
    let acc = ref init in
    iter_seq_range ~is_float:true t ~lo ~hi (fun _ v ->
        match v with `F x -> acc := f !acc x | `I _ -> assert false);
    !acc
end

module Hashmap = struct
  type t = {
    slots : Array.t; (* pairs: [key+1; value] per slot, 16 bytes *)
    mutable count : int;
    mask : int;
  }

  let round_pow2 n =
    let c = ref 1 in
    while !c < n do
      c := !c * 2
    done;
    !c

  let create ctx ~slots =
    let n = round_pow2 (max 8 slots) in
    { slots = Array.create ctx ~elem_size:8 ~len:(2 * n); count = 0; mask = n - 1 }

  (* Fibonacci hashing; good spread for sequential keys. *)
  let hash t k = k * 0x2545F4914F6CDD1D land max_int land t.mask

  let probe t key =
    let rec go i steps =
      if steps > t.mask then None
      else
        let stored = Array.get t.slots (2 * i) in
        if stored = 0 then Some (i, false)
        else if stored = key + 1 then Some (i, true)
        else go ((i + 1) land t.mask) (steps + 1)
    in
    go (hash t key) 0

  let put t ~key ~value =
    if key < 0 || value < 0 then invalid_arg "Remote.Hashmap.put";
    match probe t key with
    | Some (i, present) ->
        if not present then begin
          if t.count >= t.mask then failwith "Remote.Hashmap: full";
          Array.set t.slots (2 * i) (key + 1);
          t.count <- t.count + 1
        end;
        Array.set t.slots ((2 * i) + 1) value
    | None -> failwith "Remote.Hashmap: full"

  let get t ~key =
    match probe t key with
    | Some (i, true) -> Some (Array.get t.slots ((2 * i) + 1))
    | Some (_, false) | None -> None

  let mem t ~key = match get t ~key with Some _ -> true | None -> false
  let size t = t.count
end

module Vector = struct
  type t = {
    ctx : ctx;
    elem_size : int;
    mutable data : Array.t;
    mutable len : int;
  }

  let create ctx ~elem_size =
    { ctx; elem_size; data = Array.create ctx ~elem_size ~len:16; len = 0 }

  let length t = t.len
  let capacity t = Array.len t.data

  let grow t =
    let bigger = Array.create t.ctx ~elem_size:t.elem_size ~len:(2 * Array.len t.data) in
    for i = 0 to t.len - 1 do
      Array.set bigger i (Array.get t.data i)
    done;
    (* The old region is dead; a real implementation frees it back to the
       region allocator. *)
    Region_alloc.free t.ctx.alloc t.data.Array.base;
    t.data <- bigger

  let push t v =
    if t.len = Array.len t.data then grow t;
    Array.set t.data t.len v;
    t.len <- t.len + 1

  let check t i = if i < 0 || i >= t.len then invalid_arg "Remote.Vector: index"

  let get t i =
    check t i;
    Array.get t.data i

  let set t i v =
    check t i;
    Array.set t.data i v

  let iter_prefetched t f =
    (* Iterate only the live prefix. *)
    let remaining = t.len in
    if remaining > 0 then begin
      let live = { t.data with Array.len = remaining } in
      Array.iter_prefetched live f
    end
end

module List = struct
  (* Node layout: [value (8 B); next pointer (8 B)]; next = 0 terminates. *)
  type t = { ctx : ctx; mutable head : int; mutable count : int }

  let node_bytes = 16

  let create ctx = { ctx; head = 0; count = 0 }

  let push_front t v =
    let node = Region_alloc.alloc t.ctx.alloc node_bytes in
    with_access t.ctx node node_bytes (fun () ->
        Clock.tick t.ctx.clock (2 * t.ctx.cost.Cost_model.local_access);
        Pool.mark_dirty t.ctx.pool (object_id t.ctx node);
        Memstore.store t.ctx.store ~addr:node ~size:8 v;
        Memstore.store t.ctx.store ~addr:(node + 8) ~size:8 t.head);
    t.head <- node;
    t.count <- t.count + 1

  let length t = t.count

  let fold t ~init f =
    let acc = ref init in
    let cur = ref t.head in
    while !cur <> 0 do
      let node = !cur in
      with_access t.ctx node node_bytes (fun () ->
          Clock.tick t.ctx.clock (2 * t.ctx.cost.Cost_model.local_access);
          acc := f !acc (Memstore.load t.ctx.store ~addr:node ~size:8);
          cur := Memstore.load t.ctx.store ~addr:(node + 8) ~size:8)
    done;
    !acc

  let nth t k =
    if k < 0 || k >= t.count then None
    else begin
      let cur = ref t.head in
      for _ = 1 to k do
        with_access t.ctx !cur node_bytes (fun () ->
            Clock.tick t.ctx.clock t.ctx.cost.Cost_model.local_access;
            cur := Memstore.load t.ctx.store ~addr:(!cur + 8) ~size:8)
      done;
      let node = !cur in
      Some
        (with_access t.ctx node node_bytes (fun () ->
             Clock.tick t.ctx.clock t.ctx.cost.Cost_model.local_access;
             Memstore.load t.ctx.store ~addr:node ~size:8))
    end
end

module Queue = struct
  type t = {
    ring : Array.t;
    capacity : int;
    mutable head : int; (* next pop *)
    mutable tail : int; (* next push *)
    mutable count : int;
  }

  let create ctx ~capacity =
    if capacity <= 0 then invalid_arg "Remote.Queue.create";
    {
      ring = Array.create ctx ~elem_size:8 ~len:capacity;
      capacity;
      head = 0;
      tail = 0;
      count = 0;
    }

  let length t = t.count
  let is_full t = t.count = t.capacity

  let push t v =
    if is_full t then false
    else begin
      Array.set t.ring t.tail v;
      t.tail <- (t.tail + 1) mod t.capacity;
      t.count <- t.count + 1;
      true
    end

  let pop t =
    if t.count = 0 then None
    else begin
      let v = Array.get t.ring t.head in
      t.head <- (t.head + 1) mod t.capacity;
      t.count <- t.count - 1;
      Some v
    end
end
