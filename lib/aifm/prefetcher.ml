type stream = {
  mutable last : int;
  mutable stride : int;
  mutable confidence : int;
  mutable age : int;
}

type t = {
  pool : Pool.t;
  table : stream array;
  depth : int;
  mutable tick : int;
}

(* Concurrent stride streams tracked. *)
let streams = 8

let create pool ?(depth = 8) () =
  {
    pool;
    table =
      Array.init streams (fun _ ->
          { last = min_int; stride = 0; confidence = 0; age = 0 });
    depth;
    tick = 0;
  }

let issue t ~from ~stride =
  Telemetry.Sink.prefetch_event (Pool.telemetry t.pool) ~from ~stride
    ~depth:t.depth;
  for k = 1 to t.depth do
    let id = from + (k * stride) in
    if id >= 0 then Pool.mark_prefetched t.pool id
  done

let max_learnable_stride = 64

(* The index of the stream that [id] continues, advancing or training
   it, or -1 if none does; streams are tried from [i] on. *)
let rec find_stream t id i =
  if i >= Array.length t.table then -1
  else
    let s = t.table.(i) in
    if s.last = min_int then find_stream t id (i + 1)
    else if id = s.last then i (* repeat access: no new info *)
    else if s.stride <> 0 && id = s.last + s.stride then begin
      s.last <- id;
      s.confidence <- s.confidence + 1;
      s.age <- t.tick;
      i
    end
    else if s.stride = 0 && abs (id - s.last) <= max_learnable_stride then begin
      s.stride <- id - s.last;
      s.last <- id;
      s.confidence <- 1;
      s.age <- t.tick;
      i
    end
    else find_stream t id (i + 1)

let access t id =
  t.tick <- t.tick + 1;
  let i = find_stream t id 0 in
  if i >= 0 then begin
    let s = t.table.(i) in
    if s.confidence >= 2 then issue t ~from:id ~stride:s.stride
  end
  else begin
    (* Replace the least recently advanced stream (the first, on ties). *)
    let v = ref 0 in
    for k = 1 to Array.length t.table - 1 do
      if t.table.(k).age < t.table.(!v).age then v := k
    done;
    let victim = t.table.(!v) in
    victim.last <- id;
    victim.stride <- 0;
    victim.confidence <- 0;
    victim.age <- t.tick
  end
