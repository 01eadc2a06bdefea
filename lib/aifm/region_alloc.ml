type t = {
  base : int;
  mutable brk : int;
  free_lists : (int, int list ref) Hashtbl.t; (* size class -> addresses *)
  live : (int, int * int) Hashtbl.t; (* addr -> class size, requested *)
}

let create ~base =
  { base; brk = base; free_lists = Hashtbl.create 16; live = Hashtbl.create 64 }

let page = 4096

let size_class n =
  if n <= 16 then 16
  else if n >= 16 * page then
    (* Large blocks are page-granular (the slab/pow2 rounding of small
       classes would waste up to half the block). *)
    (n + page - 1) / page * page
  else begin
    (* next power of two *)
    let c = ref 16 in
    while !c < n do
      c := !c * 2
    done;
    !c
  end

let alloc t n =
  if n <= 0 then invalid_arg "Region_alloc.alloc: size must be positive";
  let cls = size_class n in
  let addr =
    match Hashtbl.find_opt t.free_lists cls with
    | Some ({ contents = addr :: rest } as l) ->
        l := rest;
        addr
    | Some { contents = [] } | None ->
        let addr = t.brk in
        t.brk <- t.brk + cls;
        addr
  in
  Hashtbl.replace t.live addr (cls, n);
  addr

let free t addr =
  match Hashtbl.find_opt t.live addr with
  | None -> invalid_arg "Region_alloc.free: not a live allocation"
  | Some (cls, _) ->
      Hashtbl.remove t.live addr;
      let l =
        match Hashtbl.find_opt t.free_lists cls with
        | Some l -> l
        | None ->
            let l = ref [] in
            Hashtbl.replace t.free_lists cls l;
            l
      in
      l := addr :: !l

let size_of t addr =
  match Hashtbl.find_opt t.live addr with
  | Some (cls, _) -> cls
  | None -> invalid_arg "Region_alloc.size_of: not live"

let requested_size_of t addr =
  match Hashtbl.find_opt t.live addr with
  | Some (_, req) -> req
  | None -> invalid_arg "Region_alloc.requested_size_of: not live"

let high_watermark t = t.brk
