(* The per-access paths below the execution engines allocate nothing,
   and neither do the slow paths behind them: a guard miss that evicts
   and fetches, a prefetcher that fires, a Fastswap major fault.

   The compiled engine's dispatch allocates nothing either: a loop's
   block entries, phi moves and branches.

   Each case calls its path once to warm up (first touches materialize
   pages, objects and chunk state), then counts minor-heap words over
   10,000 more calls. Allocation counts are deterministic, so this keeps
   these paths free of hashing, option and closure garbage without a
   wall-clock gate. *)

module R = Trackfm.Runtime
module Sink = Telemetry.Sink

let calls = 10_000

let words_per_call f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int calls

(* A fraction of a word is the two boxed floats [Gc.minor_words]
   returns; any allocation on the path itself costs at least one word
   per call. *)
let zero_alloc what f =
  let w = words_per_call f in
  if w >= 0.5 then Alcotest.failf "%s: %.2f words per call, want 0" what w

let test_memstore () =
  let s = Memstore.create () in
  let a = (5 * Memstore.page_size) + 8 and b = (9 * Memstore.page_size) + 16 in
  zero_alloc "loads and stores alternating between two pages" (fun () ->
      Memstore.store s ~addr:a ~size:8 (Memstore.load s ~addr:b ~size:8 + 1);
      Memstore.store s ~addr:b ~size:4 (Memstore.load s ~addr:a ~size:4));
  let regs = [| 1.5; 0.0 |] in
  zero_alloc "float register loads and stores" (fun () ->
      Memstore.store_float_from s ~addr:a regs 0;
      Memstore.load_float_into s ~addr:b regs 1;
      Memstore.store_float_from s ~addr:b regs 0;
      Memstore.load_float_into s ~addr:a regs 1)

let make_rt ?(objects = 16) () =
  let clock = Clock.create () in
  R.create Cost_model.default clock (Memstore.create ()) ~object_size:4096
    ~local_budget:(objects * 4096)

(* [f] must bump each named counter at least once per call. *)
let zero_alloc_counting clock counters what f =
  let before = List.map (Clock.get clock) counters in
  zero_alloc what f;
  List.iter2
    (fun name b ->
      let moved = Clock.get clock name - b in
      if moved < calls then
        Alcotest.failf "%s: %s moved %d times in %d calls" what name moved
          calls)
    counters before

let test_guard () =
  let rt = make_rt () in
  let p = R.tfm_malloc rt 4096 in
  zero_alloc "fast read guard" (fun () ->
      R.guard rt ~ptr:(p + 64) ~size:8 ~write:false);
  zero_alloc "fast write guard" (fun () ->
      R.guard rt ~ptr:(p + 64) ~size:8 ~write:true);
  zero_alloc "custody check" (fun () ->
      R.guard rt ~ptr:(1 lsl 30) ~size:8 ~write:false)

(* One object of local memory, two objects in use: every guard misses,
   evicts the other (dirty) object and fetches its own. *)
let test_guard_miss () =
  let rt = make_rt ~objects:1 () in
  let p = R.tfm_malloc rt (2 * 4096) in
  let counters = [ "tfm.slow_guards"; "aifm.writebacks"; "net.fetches" ] in
  zero_alloc_counting (R.clock rt) counters "write misses" (fun () ->
      R.guard rt ~ptr:p ~size:8 ~write:true;
      R.guard rt ~ptr:(p + 4096) ~size:8 ~write:true);
  zero_alloc_counting (R.clock rt) counters
    "a read miss evicting a dirty object" (fun () ->
      R.guard rt ~ptr:p ~size:8 ~write:true;
      R.guard rt ~ptr:(p + 4096) ~size:8 ~write:false)

(* A stride-2 write stream over 16 objects with room for 4: every guard
   misses, the prefetcher learns the stride and marks the objects ahead,
   and their fetches are the prefetched kind. *)
let test_prefetching_misses () =
  let rt = make_rt ~objects:4 () in
  let p = R.tfm_malloc rt (32 * 4096) in
  zero_alloc_counting (R.clock rt)
    [ "tfm.slow_guards"; "net.prefetched_fetches" ]
    "strided misses" (fun () ->
      for k = 0 to 15 do
        R.guard rt ~ptr:(p + (k * 2 * 4096)) ~size:8 ~write:true
      done)

(* One page of local memory, two pages written in turn: every access is
   a major fault that reclaims the other, dirty page. *)
let test_major_fault () =
  let clock = Clock.create () in
  let swap =
    Fastswap.Swap.create Cost_model.default clock
      ~local_budget:Memstore.page_size
  in
  let a = Backend.heap_base and b = Backend.heap_base + Memstore.page_size in
  zero_alloc_counting clock
    [ "fastswap.major_faults"; "fastswap.evictions"; "fastswap.writebacks" ]
    "major faults that reclaim" (fun () ->
      Fastswap.Swap.access swap ~addr:a ~size:8 ~write:true;
      Fastswap.Swap.access swap ~addr:b ~size:8 ~write:true)

(* A page already resident: its state is read and written back, with no
   fault. The two pages' state bytes sit in one 4,096-page chunk. *)
let test_resident_page () =
  let clock = Clock.create () in
  let swap =
    Fastswap.Swap.create Cost_model.default clock
      ~local_budget:(4 * Memstore.page_size)
  in
  let a = Backend.heap_base and b = Backend.heap_base + Memstore.page_size in
  zero_alloc "resident pages" (fun () ->
      Fastswap.Swap.access swap ~addr:a ~size:8 ~write:true;
      Fastswap.Swap.access swap ~addr:(b + 8) ~size:8 ~write:false)

let test_chunk_access () =
  let rt = make_rt () in
  let p = R.tfm_malloc rt 4096 in
  R.chunk_init rt ~handle:0 ~stride_bytes:8;
  zero_alloc "chunk access inside the pinned object" (fun () ->
      R.chunk_access rt ~handle:0 ~ptr:(p + 128) ~size:8 ~write:false;
      R.chunk_access rt ~handle:0 ~ptr:(p + 136) ~size:8 ~write:true)

let test_pin () =
  let clock = Clock.create () in
  let net = Net.create Cost_model.default clock Net.Tcp in
  let pool =
    Aifm.Pool.create Cost_model.default clock ~net ~object_size:4096
      ~local_budget:(4 * 4096)
  in
  Aifm.Pool.ensure_local pool 3;
  zero_alloc "pin then unpin" (fun () ->
      Aifm.Pool.pin pool 3;
      Aifm.Pool.unpin pool 3)

let test_span_hooks () =
  zero_alloc "cat_enter then cat_exit on the nop sink" (fun () ->
      Sink.cat_enter Sink.nop Telemetry.Span.Guard_fast;
      Sink.cat_exit Sink.nop);
  zero_alloc "op_begin then op_end on the nop sink" (fun () ->
      Sink.op_begin Sink.nop ~cls:1;
      Sink.op_end Sink.nop)

(* A compiled loop whose body branches on the low bit of its induction
   variable and joins through a phi: loop-header phis, a join phi, [cbr]
   and [br] all run on edges and block entries that allocate nothing, so
   a run's minor words do not grow with its iteration count. The two
   runs' difference cancels compiling the module and setting up. *)
let test_compiled_loop () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:1 in
  let acc =
    Builder.for_loop_acc b ~init:(Ir.Const 0) ~bound:(Builder.arg 0)
      ~accs:[ Ir.Const 1 ]
      (fun b ~iv ~accs ->
        let a = List.hd accs in
        let odd = Builder.add_block b "odd" in
        let even = Builder.add_block b "even" in
        let join = Builder.add_block b "join" in
        Builder.cbr b (Builder.binop b Ir.And iv (Ir.Const 1)) odd even;
        Builder.set_block b odd;
        let x = Builder.add b a iv in
        Builder.br b join;
        Builder.set_block b even;
        let y = Builder.mul b a (Ir.Const 3) in
        Builder.br b join;
        Builder.set_block b join;
        let z = Builder.phi b [ (odd, x); (even, y) ] in
        [ Builder.binop b Ir.And z (Ir.Const 0xFFFFFF) ])
  in
  Builder.ret b (Some (List.hd acc));
  Verifier.check_module m;
  let words n =
    let backend =
      Backend.local Cost_model.default (Clock.create ()) (Memstore.create ())
    in
    let before = Gc.minor_words () in
    ignore (Engine.run ~engine:Engine.Compiled ~args:[ n ] backend m ~entry:"main");
    Gc.minor_words () -. before
  in
  let w = (words (calls + 1_000) -. words 1_000) /. float_of_int calls in
  if w >= 0.5 then
    Alcotest.failf "compiled loop: %.2f words per iteration, want 0" w

let suite =
  ( "zero allocation",
    [
      Alcotest.test_case "memstore accesses" `Quick test_memstore;
      Alcotest.test_case "guards" `Quick test_guard;
      Alcotest.test_case "guard misses" `Quick test_guard_miss;
      Alcotest.test_case "prefetching misses" `Quick test_prefetching_misses;
      Alcotest.test_case "fastswap major faults" `Quick test_major_fault;
      Alcotest.test_case "fastswap resident pages" `Quick test_resident_page;
      Alcotest.test_case "chunk access" `Quick test_chunk_access;
      Alcotest.test_case "pool pins" `Quick test_pin;
      Alcotest.test_case "span hooks" `Quick test_span_hooks;
      Alcotest.test_case "compiled loop" `Quick test_compiled_loop;
    ] )
