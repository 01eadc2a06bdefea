let page_size = 4096
let page_bits = 12
let page_mask = page_size - 1

(* A direct-mapped cache of page handles sits in front of the page
   table: page [idx] can only live in slot [idx land (cache_slots - 1)],
   so a hit is one compare and one array load, and no access of any size
   hashes. [tags.(s)] is the page index held by slot [s], or -1 (which no
   [addr lsr page_bits] can equal) while the slot is empty. *)
let cache_slots = 4096

type t = {
  pages : Bytes.t Tfm_util.Int_table.t;
  tags : int array;
  cached : Bytes.t array;
}

let create () =
  {
    pages = Tfm_util.Int_table.create 1024;
    tags = Array.make cache_slots (-1);
    cached = Array.make cache_slots Bytes.empty;
  }

(* Pages are only ever created, never dropped or replaced, so a cached
   handle stays the backing store of its index for the lifetime of
   [t]. *)
let fill t idx slot =
  let p =
    match Tfm_util.Int_table.find t.pages idx with
    | p -> p
    | exception Not_found ->
        let p = Bytes.make page_size '\000' in
        Tfm_util.Int_table.add t.pages idx p;
        p
  in
  Array.unsafe_set t.tags slot idx;
  Array.unsafe_set t.cached slot p;
  p

let[@inline] page t idx =
  let slot = idx land (cache_slots - 1) in
  if Array.unsafe_get t.tags slot = idx then Array.unsafe_get t.cached slot
  else fill t idx slot

(* An access that spans a page boundary goes byte by byte, little-endian,
   as the low [size] bytes of an [int64]. *)
let load_bytes t ~addr ~size =
  let v = ref 0L in
  for k = size - 1 downto 0 do
    let a = addr + k in
    let b = Bytes.get_uint8 (page t (a lsr page_bits)) (a land page_mask) in
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int b)
  done;
  !v

let store_bytes t ~addr ~size v =
  for k = 0 to size - 1 do
    let a = addr + k in
    Bytes.set_uint8
      (page t (a lsr page_bits))
      (a land page_mask)
      (Int64.to_int (Int64.shift_right_logical v (8 * k)) land 0xFF)
  done

(* A byte access never spans, so the spanning paths check the size
   themselves and the in-page paths reject a bad one in their match. *)
let spanning_size fn size =
  if size <> 2 && size <> 4 && size <> 8 then invalid_arg (fn ^ ": size")

let load t ~addr ~size =
  let off = addr land page_mask in
  if off + size <= page_size then begin
    let p = page t (addr lsr page_bits) in
    match size with
    | 1 -> Char.code (Bytes.get p off)
    | 2 -> Bytes.get_uint16_le p off
    | 4 -> Int32.to_int (Bytes.get_int32_le p off) land 0xFFFFFFFF
    | 8 ->
        (* Truncate to 63 bits so the result stays a valid OCaml int. *)
        Int64.to_int (Bytes.get_int64_le p off) land max_int
    | _ -> invalid_arg "Memstore.load: size"
  end
  else begin
    spanning_size "Memstore.load" size;
    Int64.to_int (load_bytes t ~addr ~size) land max_int
  end

let store t ~addr ~size v =
  let off = addr land page_mask in
  if off + size <= page_size then begin
    let p = page t (addr lsr page_bits) in
    match size with
    | 1 -> Bytes.set p off (Char.chr (v land 0xFF))
    | 2 -> Bytes.set_uint16_le p off (v land 0xFFFF)
    | 4 -> Bytes.set_int32_le p off (Int32.of_int v)
    | 8 -> Bytes.set_int64_le p off (Int64.of_int v)
    | _ -> invalid_arg "Memstore.store: size"
  end
  else begin
    spanning_size "Memstore.store" size;
    store_bytes t ~addr ~size (Int64.of_int v)
  end

(* The 8 bytes at [addr] as an [int64]. Inlined into each 8-byte
   accessor below, so the word stays unboxed on the way to or from the
   page. *)
let[@inline] load_word t ~addr =
  let off = addr land page_mask in
  if off + 8 <= page_size then
    Bytes.get_int64_le (page t (addr lsr page_bits)) off
  else load_bytes t ~addr ~size:8

let[@inline] store_word t ~addr v =
  let off = addr land page_mask in
  if off + 8 <= page_size then
    Bytes.set_int64_le (page t (addr lsr page_bits)) off v
  else store_bytes t ~addr ~size:8 v

(* Full-fidelity 64-bit accessors for byte movers (replication,
   checksums): [load ~size:8] truncates to OCaml's 63-bit int, which
   would silently clear the top bit of every word copied through it —
   e.g. the sign bit of negative doubles. *)
let load64 t ~addr = load_word t ~addr
let store64 t ~addr v = store_word t ~addr v
let load_float t ~addr = Int64.float_of_bits (load_word t ~addr)
let store_float t ~addr x = store_word t ~addr (Int64.bits_of_float x)

(* A float returned from or passed to a function in another module is
   boxed, one allocation per access; these move it through an array. *)
let load_float_into t ~addr regs i =
  regs.(i) <- Int64.float_of_bits (load_word t ~addr)

let store_float_from t ~addr regs i =
  store_word t ~addr (Int64.bits_of_float regs.(i))

(* Visit [addr, addr + len) one page at a time: [f page off pos n]
   covers [n] bytes from [off] in [page], which are bytes [pos ..] of the
   range. *)
let iter_pages t ~addr ~len f =
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let off = a land page_mask in
    let n = min (len - !pos) (page_size - off) in
    f (page t (a lsr page_bits)) off !pos n;
    pos := !pos + n
  done

let write_bytes t ~addr b =
  iter_pages t ~addr ~len:(Bytes.length b) (fun p off pos n ->
      Bytes.blit b pos p off n)

let blit t ~src ~dst ~len =
  let tmp = Bytes.create len in
  iter_pages t ~addr:src ~len (fun p off pos n -> Bytes.blit p off tmp pos n);
  write_bytes t ~addr:dst tmp
