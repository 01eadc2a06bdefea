(* Tests for the kernel-paging baseline. *)

let make ?(readahead = 0) ?(local_budget = 4 * 4096) () =
  let cost = Cost_model.default in
  let clock = Clock.create () in
  (Fastswap.Swap.create ~readahead cost clock ~local_budget, clock)

let test_first_touch_minor_fault () =
  let swap, clock = make () in
  Fastswap.Swap.access swap ~addr:0 ~size:8 ~write:false;
  Alcotest.(check int) "minor fault" 1 (Clock.get clock "fastswap.minor_faults");
  Alcotest.(check int) "no major" 0 (Clock.get clock "fastswap.major_faults");
  Alcotest.(check bool) "present" true (Fastswap.Swap.is_present swap ~addr:0)

let test_present_access_free () =
  let swap, clock = make () in
  Fastswap.Swap.access swap ~addr:0 ~size:8 ~write:false;
  let before = Clock.cycles clock in
  Fastswap.Swap.access swap ~addr:8 ~size:8 ~write:false;
  Alcotest.(check int) "no extra cycles on present page" before
    (Clock.cycles clock)

let page = Fastswap.Swap.page_size

let test_reclaim_and_major_fault () =
  let swap, clock = make ~local_budget:(2 * page) () in
  (* Dirty two pages, then touch more to force reclaim. *)
  Fastswap.Swap.access swap ~addr:0 ~size:8 ~write:true;
  Fastswap.Swap.access swap ~addr:page ~size:8 ~write:true;
  Fastswap.Swap.access swap ~addr:(2 * page) ~size:8 ~write:false;
  Fastswap.Swap.access swap ~addr:(3 * page) ~size:8 ~write:false;
  Alcotest.(check bool) "budget enforced" true
    (Fastswap.Swap.present_pages swap <= 2);
  Alcotest.(check bool) "dirty eviction wrote back" true
    (Clock.get clock "fastswap.writebacks" > 0);
  (* Page 0 was swapped out dirty: next touch is a major fault. *)
  Clock.reset clock;
  Fastswap.Swap.access swap ~addr:0 ~size:8 ~write:false;
  Alcotest.(check int) "major fault" 1 (Clock.get clock "fastswap.major_faults");
  Alcotest.(check bool) "page transfer charged" true
    (Clock.get clock "net.bytes_in" = page)

let test_major_fault_cost_calibration () =
  (* Table 2: a remote fault costs ~34 Kcycles (plus a cheap clean-page
     reclaim to make room). *)
  let swap, clock = make ~local_budget:(2 * page) () in
  Fastswap.Swap.access swap ~addr:0 ~size:8 ~write:true;
  Fastswap.Swap.access swap ~addr:page ~size:8 ~write:false;
  Fastswap.Swap.access swap ~addr:(2 * page) ~size:8 ~write:false;
  (* page 0 is now swapped out (written back on reclaim) *)
  Alcotest.(check bool) "page 0 out" false (Fastswap.Swap.is_present swap ~addr:0);
  Clock.reset clock;
  Fastswap.Swap.access swap ~addr:0 ~size:8 ~write:false;
  let cycles = Clock.cycles clock in
  Alcotest.(check bool) "fault in 30-40Kcyc band" true
    (cycles > 30_000 && cycles < 40_000)

let test_page_spanning_access () =
  let swap, clock = make () in
  Fastswap.Swap.access swap ~addr:(page - 4) ~size:8 ~write:false;
  Alcotest.(check int) "two pages faulted" 2
    (Clock.get clock "fastswap.minor_faults")

let test_clean_page_dropped_silently () =
  let swap, clock = make ~local_budget:page () in
  Fastswap.Swap.access swap ~addr:0 ~size:8 ~write:false;
  Fastswap.Swap.access swap ~addr:page ~size:8 ~write:false;
  Alcotest.(check int) "no writeback for clean page" 0
    (Clock.get clock "fastswap.writebacks")

let test_readahead () =
  let swap, clock = make ~readahead:4 ~local_budget:(32 * page) () in
  (* Create swapped-out neighbours. *)
  for k = 0 to 15 do
    Fastswap.Swap.access swap ~addr:(k * page) ~size:8 ~write:true
  done;
  let swap2, clock2 = (swap, clock) in
  ignore swap2;
  (* force everything out by exceeding budget: touch 32 fresh pages *)
  for k = 16 to 60 do
    Fastswap.Swap.access swap ~addr:(k * page) ~size:8 ~write:false
  done;
  Clock.reset clock2;
  Fastswap.Swap.access swap ~addr:0 ~size:8 ~write:false;
  Alcotest.(check int) "one major" 1 (Clock.get clock "fastswap.major_faults");
  Alcotest.(check int) "readahead pulled neighbours" 4
    (Clock.get clock "fastswap.readahead_pages");
  (* Readahead pages are mapped cold, so under pressure the earliest ones
     can be reclaimed again before use (as in a real kernel); at least
     the most recent neighbours must still be present and free to touch. *)
  Alcotest.(check bool) "recent neighbour present" true
    (Fastswap.Swap.is_present swap ~addr:(4 * page));
  let c = Clock.cycles clock in
  Fastswap.Swap.access swap ~addr:(4 * page) ~size:8 ~write:false;
  Alcotest.(check int) "neighbour access free" c (Clock.cycles clock)

(* Page states are one byte per page index, and the heap's pages and
   the tracked pages of TrackFM's size classes 0 and 1 fall in chunks
   that share a slot of the state store's page cache. With one page of
   local memory: x and y are written (y's fault evicts x, dirty), then
   z of the other class is read, which must be a first touch, not the
   major fault x's state would give; x comes back by a major fault. *)
let test_page_state_regions () =
  let swap, clock = make ~local_budget:page () in
  let x = Backend.heap_base
  and y = Trackfm.Nc_ptr.class_base 0
  and z = Trackfm.Nc_ptr.class_base 1 in
  let access addr ~write = Fastswap.Swap.access swap ~addr ~size:8 ~write in
  let faults () =
    ( Clock.get clock "fastswap.minor_faults",
      Clock.get clock "fastswap.major_faults" )
  in
  access x ~write:true;
  access y ~write:true;
  Alcotest.(check (pair int int)) "x and y first touches" (2, 0) (faults ());
  Alcotest.(check (list bool)) "y evicted x" [ false; true; false ]
    (List.map (fun addr -> Fastswap.Swap.is_present swap ~addr) [ x; y; z ]);
  access z ~write:false;
  Alcotest.(check (pair int int)) "z first touch" (3, 0) (faults ());
  access x ~write:false;
  Alcotest.(check (pair int int)) "x major fault" (3, 1) (faults ());
  Alcotest.(check int) "x and y written back" 2
    (Clock.get clock "fastswap.writebacks");
  Alcotest.(check (list bool)) "x back" [ true; false; false ]
    (List.map (fun addr -> Fastswap.Swap.is_present swap ~addr) [ x; y; z ])

(* Readahead reads the state of the pages after a fault: a swapped-out
   neighbour comes in, a never-touched one (here in the next 4,096-page
   chunk of states, never written) is absent and stays out. *)
let test_readahead_untouched_neighbour () =
  let swap, clock = make ~readahead:2 ~local_budget:(2 * page) () in
  let a = 4094 * page and b = 4095 * page and c = 4096 * page in
  List.iter
    (fun addr -> Fastswap.Swap.access swap ~addr ~size:8 ~write:true)
    [ a; b; 0; page ];
  Alcotest.(check (list bool)) "a and b swapped out" [ false; false ]
    (List.map (fun addr -> Fastswap.Swap.is_present swap ~addr) [ a; b ]);
  Clock.reset clock;
  Fastswap.Swap.access swap ~addr:a ~size:8 ~write:false;
  Alcotest.(check int) "one major" 1 (Clock.get clock "fastswap.major_faults");
  Alcotest.(check int) "b read ahead, c not" 1
    (Clock.get clock "fastswap.readahead_pages");
  Alcotest.(check int) "two pages fetched" (2 * page)
    (Clock.get clock "net.bytes_in");
  Alcotest.(check bool) "c absent" false
    (Fastswap.Swap.is_present swap ~addr:c)

let prop_budget_invariant =
  QCheck.Test.make ~name:"fastswap never exceeds budget" ~count:50
    QCheck.(list_of_size (Gen.return 150) (pair (int_range 0 63) bool))
    (fun accesses ->
      let swap, _ = make ~local_budget:(8 * page) () in
      List.iter
        (fun (p, write) ->
          Fastswap.Swap.access swap ~addr:(p * page) ~size:8 ~write)
        accesses;
      Fastswap.Swap.present_pages swap <= 8)

let prop_swapped_data_refaults =
  QCheck.Test.make ~name:"major fault count matches reuse after eviction"
    ~count:30
    QCheck.(int_range 2 6)
    (fun budget_pages ->
      let swap, clock = make ~local_budget:(budget_pages * page) () in
      let n = 3 * budget_pages in
      (* Dirty n pages sequentially, then rescan: everything evicted by
         the scan must major-fault on the second pass. *)
      for k = 0 to n - 1 do
        Fastswap.Swap.access swap ~addr:(k * page) ~size:8 ~write:true
      done;
      Clock.reset clock;
      for k = 0 to n - 1 do
        Fastswap.Swap.access swap ~addr:(k * page) ~size:8 ~write:false
      done;
      Clock.get clock "fastswap.major_faults" >= n - budget_pages)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "fastswap",
    [
      Alcotest.test_case "first touch minor" `Quick test_first_touch_minor_fault;
      Alcotest.test_case "present access free" `Quick test_present_access_free;
      Alcotest.test_case "reclaim + major" `Quick test_reclaim_and_major_fault;
      Alcotest.test_case "fault cost calibration" `Quick
        test_major_fault_cost_calibration;
      Alcotest.test_case "page spanning" `Quick test_page_spanning_access;
      Alcotest.test_case "clean drop" `Quick test_clean_page_dropped_silently;
      Alcotest.test_case "readahead" `Quick test_readahead;
      Alcotest.test_case "page states by region" `Quick
        test_page_state_regions;
      Alcotest.test_case "readahead skips untouched pages" `Quick
        test_readahead_untouched_neighbour;
      q prop_budget_invariant;
      q prop_swapped_data_refaults;
    ] )
