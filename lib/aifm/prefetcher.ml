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

let access t id =
  t.tick <- t.tick + 1;
  let rec find i =
    if i >= Array.length t.table then None
    else
      let s = t.table.(i) in
      if s.last = min_int then find (i + 1)
      else if id = s.last then Some s (* repeat access: no new info *)
      else if s.stride <> 0 && id = s.last + s.stride then begin
        s.last <- id;
        s.confidence <- s.confidence + 1;
        s.age <- t.tick;
        Some s
      end
      else if s.stride = 0 && abs (id - s.last) <= max_learnable_stride
      then begin
        s.stride <- id - s.last;
        s.last <- id;
        s.confidence <- 1;
        s.age <- t.tick;
        Some s
      end
      else find (i + 1)
  in
  match find 0 with
  | Some s -> if s.confidence >= 2 then issue t ~from:id ~stride:s.stride
  | None ->
      (* Replace the least recently advanced stream. *)
      let victim =
        Array.fold_left
          (fun best s -> if s.age < best.age then s else best)
          t.table.(0) t.table
      in
      victim.last <- id;
      victim.stride <- 0;
      victim.confidence <- 0;
      victim.age <- t.tick
