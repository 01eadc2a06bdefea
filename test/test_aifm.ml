(* Tests for the AIFM runtime analog: pool, evacuator, pinning,
   prefetcher, region allocator, remote data structures. *)

let make_pool ?(object_size = 4096) ?(local_budget = 4 * 4096) () =
  let cost = Cost_model.default in
  let clock = Clock.create () in
  let net = Net.create cost clock Net.Tcp in
  let pool = Aifm.Pool.create cost clock ~net ~object_size ~local_budget in
  (pool, clock)

let test_first_touch_no_fetch () =
  let pool, clock = make_pool () in
  Aifm.Pool.ensure_local pool 0;
  Alcotest.(check bool) "local after touch" true (Aifm.Pool.is_local pool 0);
  Alcotest.(check int) "no network fetch on first touch" 0
    (Clock.get clock "net.fetches");
  Alcotest.(check int) "materialized" 1 (Clock.get clock "aifm.materialized")

let test_budget_enforced () =
  let pool, _ = make_pool ~local_budget:(4 * 4096) () in
  for id = 0 to 9 do
    Aifm.Pool.ensure_local pool id
  done;
  Alcotest.(check bool) "within budget" true
    (Aifm.Pool.local_used pool <= Aifm.Pool.local_budget pool);
  Alcotest.(check int) "4 objects local" 4 (Aifm.Pool.local_count pool)

let test_dirty_eviction_writeback_then_fetch () =
  let pool, clock = make_pool ~local_budget:4096 () in
  Aifm.Pool.ensure_local pool 0;
  Aifm.Pool.mark_dirty pool 0;
  (* Force 0 out by bringing in another object (budget is one object). *)
  Aifm.Pool.ensure_local pool 1;
  Alcotest.(check bool) "evicted" false (Aifm.Pool.is_local pool 0);
  Alcotest.(check int) "writeback happened" 1
    (Clock.get clock "aifm.writebacks");
  (* Re-touching it now needs a real fetch: the data lives remotely. *)
  Aifm.Pool.ensure_local pool 0;
  Alcotest.(check int) "demand fetch" 1 (Clock.get clock "aifm.demand_fetches")

let test_clean_eviction_no_writeback () =
  let pool, clock = make_pool ~local_budget:4096 () in
  Aifm.Pool.ensure_local pool 0;
  (* never dirtied *)
  Aifm.Pool.ensure_local pool 1;
  Alcotest.(check int) "no writeback" 0 (Clock.get clock "aifm.writebacks");
  (* Re-touch: still no remote copy, so it materializes again. *)
  Aifm.Pool.ensure_local pool 0;
  Alcotest.(check int) "no fetch either" 0 (Clock.get clock "net.fetches")

let test_pinned_never_evicted () =
  let pool, _ = make_pool ~local_budget:(2 * 4096) () in
  Aifm.Pool.ensure_local pool 0;
  Aifm.Pool.pin pool 0;
  for id = 1 to 8 do
    Aifm.Pool.ensure_local pool id
  done;
  Alcotest.(check bool) "pinned object survived pressure" true
    (Aifm.Pool.is_local pool 0);
  Aifm.Pool.unpin pool 0;
  for id = 9 to 12 do
    Aifm.Pool.ensure_local pool id
  done;
  Alcotest.(check bool) "unpinned object can now be evicted" false
    (Aifm.Pool.is_local pool 0)

let test_out_of_local_memory () =
  let cost = Cost_model.default in
  let clock = Clock.create () in
  let sink =
    Telemetry.Sink.recording ~trace:false ~series_interval:0 ~spans:true clock
  in
  let net = Net.create cost clock Net.Tcp in
  let pool =
    Aifm.Pool.create ~telemetry:sink cost clock ~net ~object_size:4096
      ~local_budget:4096
  in
  Aifm.Pool.ensure_local pool 0;
  Aifm.Pool.pin pool 0;
  Telemetry.Sink.op_begin sink ~cls:0;
  Alcotest.(check bool) "raises when all pinned" true
    (try
       Aifm.Pool.ensure_local pool 1;
       false
     with Aifm.Pool.Out_of_local_memory -> true);
  (* The exception leaves nothing behind: the object being localized is
     unpinned and the eviction-stall frame is closed before the span. *)
  Telemetry.Sink.op_end sink;
  Alcotest.(check bool) "localized object unpinned" false
    (Aifm.Pool.pinned pool 1);
  match Telemetry.Sink.spans sink with
  | None -> Alcotest.fail "recording sink without spans"
  | Some sp ->
      Alcotest.(check string) "no span violations" ""
        (Telemetry.Span.violation_note sp);
      Alcotest.(check int) "span violations" 0 (Telemetry.Span.violations sp)

let test_pin_counts_nested () =
  let pool, _ = make_pool () in
  Aifm.Pool.ensure_local pool 3;
  Aifm.Pool.pin pool 3;
  Aifm.Pool.pin pool 3;
  Aifm.Pool.unpin pool 3;
  Alcotest.(check bool) "still pinned after one unpin" true
    (Aifm.Pool.pinned pool 3);
  Aifm.Pool.unpin pool 3;
  Alcotest.(check bool) "fully unpinned" false (Aifm.Pool.pinned pool 3);
  Alcotest.(check bool) "unbalanced unpin rejected" true
    (try
       Aifm.Pool.unpin pool 3;
       false
     with Invalid_argument _ -> true)

(* Pin counts live in an array indexed by object id that grows on
   demand: an id far past its initial length pins, nests, survives
   eviction pressure and unpins like a small one. *)
let test_pin_counts_past_initial_length () =
  let pool, _ = make_pool ~local_budget:(2 * 4096) () in
  let id = 100_000 in
  Alcotest.(check bool) "never pinned" false (Aifm.Pool.pinned pool id);
  Aifm.Pool.ensure_local pool id;
  Aifm.Pool.pin pool id;
  Aifm.Pool.pin pool id;
  Alcotest.(check bool) "neighbour not pinned" false
    (Aifm.Pool.pinned pool (id + 1));
  Alcotest.(check bool) "id past the grown array not pinned" false
    (Aifm.Pool.pinned pool (100 * id));
  for other = 0 to 5 do
    Aifm.Pool.ensure_local pool other
  done;
  Alcotest.(check bool) "pinned object survived pressure" true
    (Aifm.Pool.is_local pool id);
  Aifm.Pool.unpin pool id;
  Alcotest.(check bool) "still pinned after one unpin" true
    (Aifm.Pool.pinned pool id);
  Aifm.Pool.unpin pool id;
  Alcotest.(check bool) "fully unpinned" false (Aifm.Pool.pinned pool id);
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "unbalanced unpin of %d rejected" id)
        true
        (try
           Aifm.Pool.unpin pool id;
           false
         with Invalid_argument _ -> true))
    [ id; 100 * id ]

let test_prefetched_fetch_cost () =
  let pool, clock = make_pool ~local_budget:(64 * 4096) () in
  (* Create remote copies: touch, dirty, evict. *)
  Aifm.Pool.ensure_local pool 0;
  Aifm.Pool.mark_dirty pool 0;
  while Aifm.Pool.is_local pool 0 do
    ignore (Aifm.Pool.evict_one pool)
  done;
  Clock.reset clock;
  Aifm.Pool.mark_prefetched pool 0;
  Aifm.Pool.ensure_local pool 0;
  Alcotest.(check int) "counted as prefetched" 1
    (Clock.get clock "net.prefetched_fetches")

let test_prefetch_ignored_without_remote_copy () =
  let pool, clock = make_pool () in
  Aifm.Pool.mark_prefetched pool 7;
  Aifm.Pool.ensure_local pool 7;
  Alcotest.(check int) "materialized, not fetched" 0
    (Clock.get clock "net.fetches")

let test_clock_second_chance () =
  let pool, _ = make_pool ~local_budget:(2 * 4096) () in
  Aifm.Pool.ensure_local pool 0;
  Aifm.Pool.ensure_local pool 1;
  (* Touch 0 again: its hot bit gives it a second chance over 1. *)
  Aifm.Pool.ensure_local pool 0;
  Aifm.Pool.ensure_local pool 2;
  (* 0 was re-touched after 1, so 1 should have gone first. Both started
     hot, so the CLOCK strips hot bits one round, then evicts 1. *)
  Alcotest.(check int) "two local" 2 (Aifm.Pool.local_count pool);
  Alcotest.(check bool) "recently touched object survives" true
    (Aifm.Pool.is_local pool 2)

let prop_pool_budget_invariant =
  QCheck.Test.make ~name:"pool never exceeds budget" ~count:50
    QCheck.(pair (int_range 1 16) (list_of_size (Gen.return 200) (int_range 0 63)))
    (fun (budget_objs, touches) ->
      let pool, _ = make_pool ~local_budget:(budget_objs * 4096) () in
      List.iter
        (fun id ->
          Aifm.Pool.ensure_local pool id;
          if id mod 3 = 0 then Aifm.Pool.mark_dirty pool id)
        touches;
      Aifm.Pool.local_used pool <= budget_objs * 4096)

(* -- region allocator -- *)

let test_alloc_alignment_and_reuse () =
  let a = Aifm.Region_alloc.create ~base:0 in
  let p1 = Aifm.Region_alloc.alloc a 100 in
  Alcotest.(check int) "16-aligned" 0 (p1 land 15);
  Alcotest.(check int) "size class pow2" 128 (Aifm.Region_alloc.size_of a p1);
  Alcotest.(check int) "requested" 100 (Aifm.Region_alloc.requested_size_of a p1);
  Aifm.Region_alloc.free a p1;
  let p2 = Aifm.Region_alloc.alloc a 90 in
  Alcotest.(check int) "freed block reused within class" p1 p2

let test_alloc_double_free () =
  let a = Aifm.Region_alloc.create ~base:0 in
  let p = Aifm.Region_alloc.alloc a 32 in
  Aifm.Region_alloc.free a p;
  Alcotest.(check bool) "double free rejected" true
    (try
       Aifm.Region_alloc.free a p;
       false
     with Invalid_argument _ -> true)

let test_alloc_distinct_live () =
  let a = Aifm.Region_alloc.create ~base:4096 in
  let ps = List.init 50 (fun i -> Aifm.Region_alloc.alloc a (16 + i)) in
  let sorted = List.sort_uniq compare ps in
  Alcotest.(check int) "all distinct" 50 (List.length sorted);
  Alcotest.(check bool) "above base" true (List.for_all (fun p -> p >= 4096) ps)

let prop_alloc_no_overlap =
  QCheck.Test.make ~name:"live allocations never overlap" ~count:50
    QCheck.(list_of_size (Gen.return 40) (int_range 1 9000))
    (fun sizes ->
      let a = Aifm.Region_alloc.create ~base:0 in
      let blocks = List.map (fun n -> (Aifm.Region_alloc.alloc a n, n)) sizes in
      let ranges =
        List.map (fun (p, _) -> (p, p + Aifm.Region_alloc.size_of a p)) blocks
      in
      let sorted = List.sort compare ranges in
      let rec ok = function
        | (_, e1) :: ((s2, _) :: _ as rest) -> e1 <= s2 && ok rest
        | _ -> true
      in
      ok sorted)

(* -- remote data structures -- *)

let make_ctx ?(object_size = 256) ?(local_budget = 64 * 256) () =
  let cost = Cost_model.default in
  let clock = Clock.create () in
  let store = Memstore.create () in
  (Aifm.Remote.create_ctx cost clock store ~object_size ~local_budget, clock)

let test_remote_array_rw () =
  let ctx, _ = make_ctx () in
  let a = Aifm.Remote.Array.create ctx ~elem_size:8 ~len:1000 in
  for i = 0 to 999 do
    Aifm.Remote.Array.set a i (i * 3)
  done;
  for i = 0 to 999 do
    Alcotest.(check int) "readback" (i * 3) (Aifm.Remote.Array.get a i)
  done

let test_remote_array_survives_eviction () =
  (* Budget far below the array: every element must still read back. *)
  let ctx, clock = make_ctx ~local_budget:(4 * 256) () in
  let a = Aifm.Remote.Array.create ctx ~elem_size:8 ~len:2000 in
  for i = 0 to 1999 do
    Aifm.Remote.Array.set a i (i + 7)
  done;
  Alcotest.(check bool) "writebacks happened" true
    (Clock.get clock "aifm.writebacks" > 0);
  let ok = ref true in
  for i = 0 to 1999 do
    if Aifm.Remote.Array.get a i <> i + 7 then ok := false
  done;
  Alcotest.(check bool) "all values survive remote round trips" true !ok;
  Alcotest.(check bool) "fetches happened" true
    (Clock.get clock "net.fetches" > 0)

let test_remote_array_floats () =
  let ctx, _ = make_ctx () in
  let a = Aifm.Remote.Array.create ctx ~elem_size:8 ~len:100 in
  Aifm.Remote.Array.set_float a 5 2.75;
  Alcotest.(check (float 0.0)) "float" 2.75 (Aifm.Remote.Array.get_float a 5)

let test_remote_array_bounds () =
  let ctx, _ = make_ctx () in
  let a = Aifm.Remote.Array.create ctx ~elem_size:8 ~len:10 in
  Alcotest.(check bool) "oob rejected" true
    (try
       ignore (Aifm.Remote.Array.get a 10);
       false
     with Invalid_argument _ -> true)

let test_remote_array_iterator_prefetches () =
  let ctx, clock = make_ctx ~object_size:256 ~local_budget:(8 * 256) () in
  let a = Aifm.Remote.Array.create ctx ~elem_size:8 ~len:4000 in
  for i = 0 to 3999 do
    Aifm.Remote.Array.set a i i
  done;
  Clock.reset clock;
  let sum = ref 0 in
  Aifm.Remote.Array.iter_prefetched a (fun _ v -> sum := !sum + v);
  Alcotest.(check int) "sum" (3999 * 4000 / 2) !sum;
  Alcotest.(check bool) "most fetches were prefetched" true
    (Clock.get clock "net.prefetched_fetches"
    > Clock.get clock "aifm.demand_fetches")

let test_remote_hashmap () =
  let ctx, _ = make_ctx ~local_budget:(128 * 256) () in
  let h = Aifm.Remote.Hashmap.create ctx ~slots:256 in
  for k = 0 to 99 do
    Aifm.Remote.Hashmap.put h ~key:k ~value:(k * k)
  done;
  Alcotest.(check int) "size" 100 (Aifm.Remote.Hashmap.size h);
  for k = 0 to 99 do
    Alcotest.(check (option int)) "get" (Some (k * k))
      (Aifm.Remote.Hashmap.get h ~key:k)
  done;
  Alcotest.(check (option int)) "absent" None
    (Aifm.Remote.Hashmap.get h ~key:1234);
  Aifm.Remote.Hashmap.put h ~key:7 ~value:999;
  Alcotest.(check (option int)) "overwrite" (Some 999)
    (Aifm.Remote.Hashmap.get h ~key:7);
  Alcotest.(check int) "size unchanged by overwrite" 100
    (Aifm.Remote.Hashmap.size h)

let test_stride_prefetcher_learns () =
  let pool, clock = make_pool ~local_budget:(128 * 4096) () in
  (* Build remote copies for ids 0..63. *)
  for id = 0 to 63 do
    Aifm.Pool.ensure_local pool id;
    Aifm.Pool.mark_dirty pool id
  done;
  for _ = 0 to 200 do
    ignore (Aifm.Pool.evict_one pool)
  done;
  Clock.reset clock;
  let pf = Aifm.Prefetcher.create pool ~depth:8 () in
  (* Walk ids sequentially; after the stride is learned, later accesses
     must be covered by prefetches. *)
  for id = 0 to 63 do
    Aifm.Prefetcher.access pf id;
    Aifm.Pool.ensure_local pool id
  done;
  Alcotest.(check bool) "prefetched majority" true
    (Clock.get clock "net.prefetched_fetches" > 40)


let test_remote_vector () =
  let ctx, _ = make_ctx ~local_budget:(64 * 256) () in
  let v = Aifm.Remote.Vector.create ctx ~elem_size:8 in
  for i = 0 to 499 do
    Aifm.Remote.Vector.push v (i * 2)
  done;
  Alcotest.(check int) "length" 500 (Aifm.Remote.Vector.length v);
  Alcotest.(check bool) "capacity grew" true
    (Aifm.Remote.Vector.capacity v >= 500);
  for i = 0 to 499 do
    Alcotest.(check int) "get" (i * 2) (Aifm.Remote.Vector.get v i)
  done;
  Aifm.Remote.Vector.set v 10 999;
  Alcotest.(check int) "set" 999 (Aifm.Remote.Vector.get v 10);
  let sum = ref 0 in
  Aifm.Remote.Vector.iter_prefetched v (fun _ x -> sum := !sum + x);
  Alcotest.(check int) "iter sum" (499 * 500 + 999 - 20) !sum;
  Alcotest.(check bool) "oob rejected" true
    (try
       ignore (Aifm.Remote.Vector.get v 500);
       false
     with Invalid_argument _ -> true)

let test_remote_vector_survives_eviction () =
  let ctx, clock = make_ctx ~local_budget:(4 * 256) () in
  let v = Aifm.Remote.Vector.create ctx ~elem_size:8 in
  for i = 0 to 2000 do
    Aifm.Remote.Vector.push v (i * 7)
  done;
  Alcotest.(check bool) "data crossed the network" true
    (Clock.get clock "net.fetches" > 0);
  let ok = ref true in
  for i = 0 to 2000 do
    if Aifm.Remote.Vector.get v i <> i * 7 then ok := false
  done;
  Alcotest.(check bool) "values survive growth + eviction" true !ok

let test_remote_list () =
  let ctx, _ = make_ctx ~local_budget:(16 * 256) () in
  let l = Aifm.Remote.List.create ctx in
  for i = 1 to 100 do
    Aifm.Remote.List.push_front l i
  done;
  Alcotest.(check int) "length" 100 (Aifm.Remote.List.length l);
  (* pushed 1..100 at front, so the list reads 100..1 *)
  Alcotest.(check (option int)) "nth 0" (Some 100) (Aifm.Remote.List.nth l 0);
  Alcotest.(check (option int)) "nth last" (Some 1) (Aifm.Remote.List.nth l 99);
  Alcotest.(check (option int)) "nth oob" None (Aifm.Remote.List.nth l 100);
  Alcotest.(check int) "fold sum" 5050 (Aifm.Remote.List.fold l ~init:0 ( + ))

let test_remote_list_pointer_chase_costs () =
  (* Traversal localizes node by node: under pressure this pays a fetch
     per cold node, the pathology the paper uses to motivate per-node
     object sizes. *)
  let ctx, clock = make_ctx ~object_size:64 ~local_budget:(8 * 64) () in
  let l = Aifm.Remote.List.create ctx in
  for i = 1 to 200 do
    Aifm.Remote.List.push_front l i
  done;
  Clock.reset clock;
  ignore (Aifm.Remote.List.fold l ~init:0 ( + ));
  Alcotest.(check bool) "mostly demand fetches (no stride to learn)" true
    (Clock.get clock "aifm.demand_fetches" > 20)

let test_remote_queue () =
  let ctx, _ = make_ctx ~local_budget:(64 * 256) () in
  let q = Aifm.Remote.Queue.create ctx ~capacity:8 in
  for i = 1 to 8 do
    Alcotest.(check bool) "push ok" true (Aifm.Remote.Queue.push q i)
  done;
  Alcotest.(check bool) "full" true (Aifm.Remote.Queue.is_full q);
  Alcotest.(check bool) "push on full fails" false (Aifm.Remote.Queue.push q 9);
  Alcotest.(check (option int)) "fifo" (Some 1) (Aifm.Remote.Queue.pop q);
  Alcotest.(check bool) "push after pop" true (Aifm.Remote.Queue.push q 9);
  (* drain: 2..9 *)
  let drained = ref [] in
  let rec drain () =
    match Aifm.Remote.Queue.pop q with
    | Some v ->
        drained := v :: !drained;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "order" [ 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !drained);
  Alcotest.(check int) "empty" 0 (Aifm.Remote.Queue.length q)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "aifm",
    [
      Alcotest.test_case "first touch no fetch" `Quick test_first_touch_no_fetch;
      Alcotest.test_case "budget enforced" `Quick test_budget_enforced;
      Alcotest.test_case "dirty eviction" `Quick
        test_dirty_eviction_writeback_then_fetch;
      Alcotest.test_case "clean eviction" `Quick test_clean_eviction_no_writeback;
      Alcotest.test_case "pinned never evicted" `Quick test_pinned_never_evicted;
      Alcotest.test_case "out of local memory" `Quick test_out_of_local_memory;
      Alcotest.test_case "nested pins" `Quick test_pin_counts_nested;
      Alcotest.test_case "pins past the initial id range" `Quick
        test_pin_counts_past_initial_length;
      Alcotest.test_case "prefetched fetch" `Quick test_prefetched_fetch_cost;
      Alcotest.test_case "prefetch w/o remote copy" `Quick
        test_prefetch_ignored_without_remote_copy;
      Alcotest.test_case "second chance" `Quick test_clock_second_chance;
      Alcotest.test_case "alloc align/reuse" `Quick test_alloc_alignment_and_reuse;
      Alcotest.test_case "alloc double free" `Quick test_alloc_double_free;
      Alcotest.test_case "alloc distinct" `Quick test_alloc_distinct_live;
      Alcotest.test_case "remote array rw" `Quick test_remote_array_rw;
      Alcotest.test_case "remote array eviction" `Quick
        test_remote_array_survives_eviction;
      Alcotest.test_case "remote array floats" `Quick test_remote_array_floats;
      Alcotest.test_case "remote array bounds" `Quick test_remote_array_bounds;
      Alcotest.test_case "iterator prefetches" `Quick
        test_remote_array_iterator_prefetches;
      Alcotest.test_case "remote hashmap" `Quick test_remote_hashmap;
      Alcotest.test_case "remote vector" `Quick test_remote_vector;
      Alcotest.test_case "remote vector eviction" `Quick
        test_remote_vector_survives_eviction;
      Alcotest.test_case "remote list" `Quick test_remote_list;
      Alcotest.test_case "remote list pointer chase" `Quick
        test_remote_list_pointer_chase_costs;
      Alcotest.test_case "remote queue" `Quick test_remote_queue;
      Alcotest.test_case "prefetcher learns" `Quick test_stride_prefetcher_learns;
      q prop_pool_budget_invariant;
      q prop_alloc_no_overlap;
    ] )
