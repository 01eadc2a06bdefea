(* Tests for the cluster substrate: clock, memstore, cost model, network. *)

let test_clock_tick_and_counters () =
  let c = Clock.create () in
  Clock.tick c 5;
  Clock.tick c 7;
  Alcotest.(check int) "cycles" 12 (Clock.cycles c);
  Clock.count c "x" 3;
  Clock.count c "x" 4;
  Alcotest.(check int) "counter" 7 (Clock.get c "x");
  Alcotest.(check int) "absent counter" 0 (Clock.get c "y");
  Clock.reset c;
  Alcotest.(check int) "reset cycles" 0 (Clock.cycles c);
  Alcotest.(check int) "reset counter" 0 (Clock.get c "x")

let test_clock_counter_registry () =
  let c = Clock.create () in
  let x = Clock.counter "test.registry.x" in
  Clock.add c x 3;
  Alcotest.(check int) "handle, then name" 3 (Clock.get c "test.registry.x");
  Clock.count c "test.registry.x" 2;
  Alcotest.(check int) "name, then handle" 5 (Clock.value c x);
  Clock.add c (Clock.counter "test.registry.zero") 0;
  Alcotest.(check (list (pair string int)))
    "counters lists the touched names, adds of 0 included"
    [ ("test.registry.x", 5); ("test.registry.zero", 0) ]
    (Clock.counters c);
  Clock.reset c;
  Alcotest.(check int) "reset clears the value" 0 (Clock.value c x);
  Alcotest.(check (list (pair string int)))
    "reset clears the touched state" [] (Clock.counters c);
  let d = Clock.create () in
  Clock.add c x 1;
  Clock.add d x 10;
  Alcotest.(check (pair int int)) "clocks keep their own values" (1, 10)
    (Clock.value c x, Clock.value d x);
  (* More names than [c]'s array had slots when it was created. *)
  let late =
    List.init 200 (fun i ->
        Clock.counter (Printf.sprintf "test.registry.late%03d" i))
  in
  List.iteri (fun i h -> Clock.add c h (i + 1)) late;
  List.iteri
    (fun i h -> Alcotest.(check int) "late counter" (i + 1) (Clock.value c h))
    late;
  Alcotest.(check int) "late names listed" 201 (List.length (Clock.counters c));
  Alcotest.(check int) "other clock untouched" 0 (Clock.value d (List.hd late))

let test_memstore_rw_sizes () =
  let s = Memstore.create () in
  Memstore.store s ~addr:100 ~size:1 0xAB;
  Alcotest.(check int) "byte" 0xAB (Memstore.load s ~addr:100 ~size:1);
  Memstore.store s ~addr:200 ~size:2 0xBEEF;
  Alcotest.(check int) "u16" 0xBEEF (Memstore.load s ~addr:200 ~size:2);
  Memstore.store s ~addr:300 ~size:4 0xDEADBEEF;
  Alcotest.(check int) "u32" 0xDEADBEEF (Memstore.load s ~addr:300 ~size:4);
  Memstore.store s ~addr:400 ~size:8 0x123456789AB;
  Alcotest.(check int) "u64" 0x123456789AB (Memstore.load s ~addr:400 ~size:8)

let test_memstore_zero_default () =
  let s = Memstore.create () in
  Alcotest.(check int) "untouched reads zero" 0
    (Memstore.load s ~addr:123_456_789 ~size:8)

let test_memstore_page_spanning () =
  let s = Memstore.create () in
  let addr = Memstore.page_size - 3 in
  Memstore.store s ~addr ~size:8 (0x1122334455667788 land max_int);
  Alcotest.(check int) "spanning rw"
    (0x1122334455667788 land max_int)
    (Memstore.load s ~addr ~size:8)

(* An 8-byte store sign-extends and an 8-byte load truncates to 63 bits
   on the spanning path as on the in-page path: after a store of -1 both
   paths hold all-ones bytes and read [max_int]. *)
let test_memstore_spanning_mask () =
  let s = Memstore.create () in
  List.iter
    (fun addr ->
      Memstore.store s ~addr ~size:8 (-1);
      Alcotest.(check int64)
        (Printf.sprintf "all 64 bits stored at %d" addr)
        (-1L) (Memstore.load64 s ~addr);
      Alcotest.(check int)
        (Printf.sprintf "8-byte load at %d" addr)
        max_int
        (Memstore.load s ~addr ~size:8))
    [ 64; Memstore.page_size - 3 ]

(* Sizes other than 1, 2, 4 and 8 are rejected within a page and across
   a page boundary alike; a rejected store writes nothing. *)
let test_memstore_bad_sizes () =
  let s = Memstore.create () in
  let rejects what f =
    Alcotest.(check bool) what true
      (match f () with () -> false | exception Invalid_argument _ -> true)
  in
  List.iter
    (fun (addr, where) ->
      List.iter
        (fun size ->
          rejects
            (Printf.sprintf "load ~size:%d %s" size where)
            (fun () -> ignore (Memstore.load s ~addr ~size));
          rejects
            (Printf.sprintf "store ~size:%d %s" size where)
            (fun () -> Memstore.store s ~addr ~size (-1)))
        [ 0; 3; 5; 16 ])
    [ (64, "in a page"); (Memstore.page_size - 1, "across pages") ];
  for addr = 64 to 80 do
    Alcotest.(check int) "in-page bytes untouched" 0
      (Memstore.load s ~addr ~size:1)
  done;
  for addr = Memstore.page_size - 1 to Memstore.page_size + 16 do
    Alcotest.(check int) "spanning bytes untouched" 0
      (Memstore.load s ~addr ~size:1)
  done

let test_memstore_floats () =
  let s = Memstore.create () in
  Memstore.store_float s ~addr:64 3.14159;
  Alcotest.(check (float 0.0)) "float roundtrip" 3.14159
    (Memstore.load_float s ~addr:64);
  let addr = Memstore.page_size - 4 in
  Memstore.store_float s ~addr (-2.5e300);
  Alcotest.(check (float 0.0)) "spanning float" (-2.5e300)
    (Memstore.load_float s ~addr)

let test_memstore_blit () =
  let s = Memstore.create () in
  for k = 0 to 15 do
    Memstore.store s ~addr:(1000 + k) ~size:1 (k * 3)
  done;
  Memstore.blit s ~src:1000 ~dst:5000 ~len:16;
  for k = 0 to 15 do
    Alcotest.(check int) "blit byte" (k * 3)
      (Memstore.load s ~addr:(5000 + k) ~size:1)
  done

let test_memstore_bulk_copy_across_pages () =
  let s = Memstore.create () in
  let ps = Memstore.page_size in
  let len = ps + 100 in
  let data = Bytes.init len (fun k -> Char.chr (((k * 7) + 1) land 0xFF)) in
  let check_range what addr =
    Bytes.iteri
      (fun k c ->
        Alcotest.(check int) what (Char.code c)
          (Memstore.load s ~addr:(addr + k) ~size:1))
      data;
    Alcotest.(check int) (what ^ ": byte before") 0
      (Memstore.load s ~addr:(addr - 1) ~size:1);
    Alcotest.(check int) (what ^ ": byte after") 0
      (Memstore.load s ~addr:(addr + len) ~size:1)
  in
  (* Three pages touched: a tail, a whole page and a head. *)
  let src = (3 * ps) - 50 in
  Memstore.write_bytes s ~addr:src data;
  check_range "write_bytes" src;
  let dst = (10 * ps) - 1 in
  Memstore.blit s ~src ~dst ~len;
  check_range "blit" dst

(* Random interleaved loads and stores over four pages, checked against
   a flat [Bytes] model: accesses switch pages and span page boundaries,
   and stored values include negative ones, whose top bit an 8-byte load
   clears on either path. *)
let prop_memstore_model =
  let pages = 4 in
  let span = pages * Memstore.page_size in
  let base = 7 * Memstore.page_size in
  let op =
    QCheck.Gen.(
      quad (int_range 0 3) (int_range 0 (span - 8)) (int_range 0 3)
        (pair int float))
  in
  let print (kind, off, szi, (v, x)) =
    Printf.sprintf "kind=%d off=%d size=%d v=%d x=%h" kind off
      (List.nth [ 1; 2; 4; 8 ] szi) v x
  in
  QCheck.Test.make ~name:"memstore matches a flat byte model" ~count:200
    (QCheck.make ~print:QCheck.Print.(list print) QCheck.Gen.(list_size (int_range 1 200) op))
    (fun ops ->
      let s = Memstore.create () in
      let model = Bytes.make span '\000' in
      let load_model off = function
        | 1 -> Bytes.get_uint8 model off
        | 2 -> Bytes.get_uint16_le model off
        | 4 -> Int32.to_int (Bytes.get_int32_le model off) land 0xFFFFFFFF
        | _ -> Int64.to_int (Bytes.get_int64_le model off) land max_int
      in
      let store_model off size v =
        match size with
        | 1 -> Bytes.set_uint8 model off (v land 0xFF)
        | 2 -> Bytes.set_uint16_le model off (v land 0xFFFF)
        | 4 -> Bytes.set_int32_le model off (Int32.of_int v)
        | _ -> Bytes.set_int64_le model off (Int64.of_int v)
      in
      List.for_all
        (fun (kind, off, szi, (v, x)) ->
          let size = List.nth [ 1; 2; 4; 8 ] szi in
          let addr = base + off in
          match kind with
          | 0 -> Memstore.load s ~addr ~size = load_model off size
          | 1 ->
              Memstore.store s ~addr ~size v;
              store_model off size v;
              true
          | 2 ->
              Int64.bits_of_float (Memstore.load_float s ~addr)
              = Bytes.get_int64_le model off
          | _ ->
              Memstore.store_float s ~addr x;
              Bytes.set_int64_le model off (Int64.bits_of_float x);
              true)
        ops
      && Seq.for_all
           (fun off ->
             Memstore.load s ~addr:(base + off) ~size:1
             = Bytes.get_uint8 model off)
           (Seq.init span Fun.id))

(* The same kind of check at addresses that collide in the page cache:
   pages [i] and [i + k * slots] share a direct-mapped slot, and every
   address region the simulator uses starts at a slot-0 page — globals,
   the stack, the local heap and each TrackFM size class (its class bits
   set). The model is a map from address to byte. *)
let prop_memstore_aliasing =
  let slots = 4096 in
  let ps = Memstore.page_size in
  let regions =
    Array.append
      [| 1 lsl 28 (* globals *); 1 lsl 30 (* stack *); Backend.heap_base |]
      (Array.init 4 Trackfm.Nc_ptr.class_base)
  in
  let addr_gen =
    QCheck.Gen.(
      map
        (fun (r, i, k, off) -> regions.(r) + ((i + (k * slots)) * ps) + off)
        (quad
           (int_range 0 (Array.length regions - 1))
           (int_range 0 2) (int_range 0 3)
           (oneof [ int_range 0 64; int_range (ps - 64) (ps - 1) ])))
  in
  let op =
    QCheck.Gen.(
      quad (int_range 0 3) addr_gen (int_range 0 3) (pair int float))
  in
  let print (kind, addr, szi, (v, x)) =
    Printf.sprintf "kind=%d addr=%#x size=%d v=%d x=%h" kind addr
      (List.nth [ 1; 2; 4; 8 ] szi) v x
  in
  QCheck.Test.make ~name:"memstore matches a byte model under slot aliasing"
    ~count:200
    (QCheck.make ~print:QCheck.Print.(list print)
       QCheck.Gen.(list_size (int_range 1 300) op))
    (fun ops ->
      let s = Memstore.create () in
      let model = Hashtbl.create 1024 in
      let byte a = Option.value ~default:0 (Hashtbl.find_opt model a) in
      let bits addr size =
        let v = ref 0L in
        for k = size - 1 downto 0 do
          v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (byte (addr + k)))
        done;
        !v
      in
      let set_bits addr size v =
        for k = 0 to size - 1 do
          Hashtbl.replace model (addr + k)
            (Int64.to_int (Int64.shift_right_logical v (8 * k)) land 0xFF)
        done
      in
      List.for_all
        (fun (kind, addr, szi, (v, x)) ->
          let size = List.nth [ 1; 2; 4; 8 ] szi in
          match kind with
          | 0 ->
              Memstore.load s ~addr ~size
              = Int64.to_int (bits addr size) land max_int
          | 1 ->
              Memstore.store s ~addr ~size v;
              set_bits addr size (Int64.of_int v);
              true
          | 2 ->
              Int64.bits_of_float (Memstore.load_float s ~addr) = bits addr 8
          | _ ->
              Memstore.store_float s ~addr x;
              set_bits addr 8 (Int64.bits_of_float x);
              true)
        ops
      && Hashtbl.fold
           (fun a b ok -> ok && Memstore.load s ~addr:a ~size:1 = b)
           model true)

let prop_memstore_roundtrip =
  QCheck.Test.make ~name:"memstore store/load roundtrip" ~count:300
    QCheck.(triple (int_range 0 1_000_000) (int_range 0 3) (int_range 0 max_int))
    (fun (addr, szi, v) ->
      let size = List.nth [ 1; 2; 4; 8 ] szi in
      let mask =
        match size with
        | 1 -> 0xFF
        | 2 -> 0xFFFF
        | 4 -> 0xFFFFFFFF
        | _ -> max_int
      in
      let s = Memstore.create () in
      Memstore.store s ~addr ~size v;
      Memstore.load s ~addr ~size = v land mask)

let test_transfer_cycles () =
  let c = Cost_model.default in
  (* 4 KiB at 25 Gb/s on a 2.4 GHz clock plus RDMA latency lands in the
     34-35 Kcycle range the paper reports for a remote page. *)
  let cycles = Cost_model.transfer_cycles c ~latency:c.rdma_latency ~bytes:4096 in
  Alcotest.(check bool) "remote page ~34Kcyc" true
    (cycles > 32_000 && cycles < 36_000)

let test_net_fetch_accounting () =
  let cost = Cost_model.default in
  let clock = Clock.create () in
  let net = Net.create cost clock Net.Rdma in
  Net.fetch net ~bytes:4096;
  Net.fetch_prefetched net ~bytes:4096;
  Net.writeback net ~bytes:4096;
  Alcotest.(check int) "bytes in" 8192 (Net.bytes_in net);
  Alcotest.(check int) "bytes out" 4096 (Net.bytes_out net);
  Alcotest.(check int) "fetches" 2 (Net.fetches net);
  Alcotest.(check int) "prefetched" 1 (Clock.get clock "net.prefetched_fetches");
  Alcotest.(check int) "writebacks" 1 (Clock.get clock "net.writebacks")

let test_prefetched_fetch_cheaper () =
  let cost = Cost_model.default in
  let demand_clock = Clock.create () in
  let net = Net.create cost demand_clock Net.Tcp in
  Net.fetch net ~bytes:4096;
  let pf_clock = Clock.create () in
  let net2 = Net.create cost pf_clock Net.Tcp in
  Net.fetch_prefetched net2 ~bytes:4096;
  Alcotest.(check bool) "prefetch hides latency" true
    (Clock.cycles pf_clock * 5 < Clock.cycles demand_clock)

let test_tcp_slower_than_rdma () =
  let cost = Cost_model.default in
  let t = Clock.create () in
  Net.fetch (Net.create cost t Net.Tcp) ~bytes:4096;
  let r = Clock.create () in
  Net.fetch (Net.create cost r Net.Rdma) ~bytes:4096;
  Alcotest.(check bool) "TCP latency above RDMA" true
    (Clock.cycles t > Clock.cycles r)

let suite =
  ( "memsim",
    [
      Alcotest.test_case "clock" `Quick test_clock_tick_and_counters;
      Alcotest.test_case "counter registry" `Quick test_clock_counter_registry;
      Alcotest.test_case "memstore sizes" `Quick test_memstore_rw_sizes;
      Alcotest.test_case "memstore zero" `Quick test_memstore_zero_default;
      Alcotest.test_case "memstore spanning" `Quick test_memstore_page_spanning;
      Alcotest.test_case "memstore spanning load masks" `Quick
        test_memstore_spanning_mask;
      Alcotest.test_case "memstore rejects bad sizes" `Quick
        test_memstore_bad_sizes;
      Alcotest.test_case "memstore floats" `Quick test_memstore_floats;
      Alcotest.test_case "memstore blit" `Quick test_memstore_blit;
      Alcotest.test_case "memstore bulk copy across pages" `Quick
        test_memstore_bulk_copy_across_pages;
      Alcotest.test_case "transfer cycles" `Quick test_transfer_cycles;
      Alcotest.test_case "net accounting" `Quick test_net_fetch_accounting;
      Alcotest.test_case "prefetch cheaper" `Quick test_prefetched_fetch_cheaper;
      Alcotest.test_case "tcp vs rdma" `Quick test_tcp_slower_than_rdma;
      QCheck_alcotest.to_alcotest prop_memstore_roundtrip;
      QCheck_alcotest.to_alcotest prop_memstore_model;
      QCheck_alcotest.to_alcotest prop_memstore_aliasing;
    ] )
