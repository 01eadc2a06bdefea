type params = { rows : int; groups : int; agg_repeat : int }

(* Real EDA notebooks run many group-by aggregations over the same frame;
   agg_repeat repeats the per-group phases, which is what gives the short
   low-density loops their Figure 15 weight. *)
let default_params ~rows = { rows; groups = max 16 (rows / 12); agg_repeat = 3 }

let checksum_mask = 0x3FFFFFFF

(* Synthetic trip columns; every implementation uses exactly these
   formulas (and the same float operation order) so checksums agree. *)
(* Rows are time-ordered and grouped by pickup minute, so group members
   are contiguous — the scan-dominated access pattern the paper
   describes for this application. *)
let zone_of p i = i * p.groups / p.rows
let pc_of i = 1 + (i * 31 mod 6)
let dist_of i = float_of_int (((i * 73) + 11) mod 5000) /. 10.0
let fare_of i = 2.5 +. (dist_of i *. 1.8) +. float_of_int (i mod 7)

let working_set_bytes p =
  (* zone + pc (4 B) + dist + fare (8 B) + idx (4 B) + counts/offsets/pos *)
  (p.rows * (4 + 4 + 8 + 8 + 4)) + (3 * (p.groups + 1) * 8)

let build p () =
  let n = p.rows in
  let g = p.groups in
  let m = Ir.create_module () in
  (* Pure helpers called from the hot scan loops: interprocedural
     summaries prove them custody-preserving, so guard facts survive the
     calls and cross-call elision still fires. Same float ops in the
     same order as the previous inline forms — checksums are
     bit-identical. *)
  let bh = Builder.create m ~name:"facc" ~nparams:2 in
  Builder.ret bh
    (Some (Builder.fbinop bh Ir.Fadd (Builder.arg 0) (Builder.arg 1)));
  let bm = Builder.create m ~name:"fsel_max" ~nparams:2 in
  let hgt = Builder.fcmp bm Ir.Gt (Builder.arg 0) (Builder.arg 1) in
  Builder.ret bm (Some (Builder.select bm hgt (Builder.arg 0) (Builder.arg 1)));
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let zone = Builder.call b "malloc" [ Ir.Const (n * 4) ] in
  let pc = Builder.call b "malloc" [ Ir.Const (n * 4) ] in
  let dist = Builder.call b "malloc" [ Ir.Const (n * 8) ] in
  let fare = Builder.call b "malloc" [ Ir.Const (n * 8) ] in
  let idx = Builder.call b "malloc" [ Ir.Const (n * 4) ] in
  let counts = Builder.call b "calloc" [ Ir.Const (g + 1); Ir.Const 8 ] in
  let offsets = Builder.call b "calloc" [ Ir.Const (g + 1); Ir.Const 8 ] in
  let pos = Builder.call b "calloc" [ Ir.Const (g + 1); Ir.Const 8 ] in
  let hist = Builder.call b "calloc" [ Ir.Const 8; Ir.Const 8 ] in
  (* Build the dataframe. *)
  Builder.for_loop b ~hint:"gen" ~init:(Ir.Const 0) ~bound:(Ir.Const n)
    (fun b i ->
      let z = Builder.binop b Ir.Sdiv (Builder.mul b i (Ir.Const g)) (Ir.Const n) in
      Builder.store b ~size:4 z ~ptr:(Builder.gep b zone ~index:i ~scale:4 ());
      let pcv =
        Builder.add b (Ir.Const 1)
          (Builder.binop b Ir.Srem (Builder.mul b i (Ir.Const 31)) (Ir.Const 6))
      in
      Builder.store b ~size:4 pcv ~ptr:(Builder.gep b pc ~index:i ~scale:4 ());
      let draw =
        Builder.binop b Ir.Srem
          (Builder.add b (Builder.mul b i (Ir.Const 73)) (Ir.Const 11))
          (Ir.Const 5000)
      in
      let d = Builder.fbinop b Ir.Fdiv (Builder.si_to_fp b draw) (Ir.Constf 10.0) in
      Builder.store b ~is_float:true d
        ~ptr:(Builder.gep b dist ~index:i ~scale:8 ());
      let f =
        Builder.fbinop b Ir.Fadd
          (Builder.fbinop b Ir.Fadd (Ir.Constf 2.5)
             (Builder.fbinop b Ir.Fmul d (Ir.Constf 1.8)))
          (Builder.si_to_fp b (Builder.binop b Ir.Srem i (Ir.Const 7)))
      in
      Builder.store b ~is_float:true f
        ~ptr:(Builder.gep b fare ~index:i ~scale:8 ()));
  ignore (Builder.call b "!bench_begin" []);
  (* Q1: mean trip distance — a whole-column scan. *)
  let q1accs =
    Builder.for_loop_acc b ~hint:"q1" ~init:(Ir.Const 0) ~bound:(Ir.Const n)
      ~accs:[ Ir.Constf 0.0 ]
      (fun b ~iv:i ~accs ->
        let s = match accs with [ s ] -> s | _ -> assert false in
        let d = Builder.load b ~is_float:true (Builder.gep b dist ~index:i ~scale:8 ()) in
        [ Builder.call b "facc" [ s; d ] ])
  in
  let q1sum = match q1accs with [ s ] -> s | _ -> assert false in
  let mean =
    Builder.fbinop b Ir.Fdiv q1sum (Ir.Constf (float_of_int n))
  in
  let q1 = Builder.fp_to_si b (Builder.fbinop b Ir.Fmul mean (Ir.Constf 1000.0)) in
  (* Q2: passenger-count histogram. *)
  Builder.for_loop b ~hint:"q2" ~init:(Ir.Const 0) ~bound:(Ir.Const n)
    (fun b i ->
      let v = Builder.load b ~size:4 (Builder.gep b pc ~index:i ~scale:4 ()) in
      let hptr = Builder.gep b hist ~index:v ~scale:8 () in
      let c = Builder.load b hptr in
      Builder.store b (Builder.add b c (Ir.Const 1)) ~ptr:hptr);
  let q2accs =
    Builder.for_loop_acc b ~hint:"q2r" ~init:(Ir.Const 0) ~bound:(Ir.Const 8)
      ~accs:[ Ir.Const 0 ]
      (fun b ~iv:c ~accs ->
        let s = match accs with [ s ] -> s | _ -> assert false in
        let cnt = Builder.load b (Builder.gep b hist ~index:c ~scale:8 ()) in
        [ Builder.add b s (Builder.mul b cnt c) ])
  in
  let q2 = match q2accs with [ s ] -> s | _ -> assert false in
  (* Q3: max fare — another column scan. *)
  let q3accs =
    Builder.for_loop_acc b ~hint:"q3" ~init:(Ir.Const 0) ~bound:(Ir.Const n)
      ~accs:[ Ir.Constf neg_infinity ]
      (fun b ~iv:i ~accs ->
        let mx = match accs with [ s ] -> s | _ -> assert false in
        let f = Builder.load b ~is_float:true (Builder.gep b fare ~index:i ~scale:8 ()) in
        [ Builder.call b "fsel_max" [ f; mx ] ])
  in
  let q3max = match q3accs with [ s ] -> s | _ -> assert false in
  let q3 = Builder.fp_to_si b (Builder.fbinop b Ir.Fmul q3max (Ir.Constf 100.0)) in
  (* Q5: filtered count over two columns (long trips with high fares). *)
  let q5accs =
    Builder.for_loop_acc b ~hint:"q5" ~init:(Ir.Const 0) ~bound:(Ir.Const n)
      ~accs:[ Ir.Const 0 ]
      (fun b ~iv:i ~accs ->
        let c = match accs with [ s ] -> s | _ -> assert false in
        let d = Builder.load b ~is_float:true (Builder.gep b dist ~index:i ~scale:8 ()) in
        let f = Builder.load b ~is_float:true (Builder.gep b fare ~index:i ~scale:8 ()) in
        let long_trip = Builder.fcmp b Ir.Gt d (Ir.Constf 300.0) in
        let pricey = Builder.fcmp b Ir.Gt f (Ir.Constf 500.0) in
        let both = Builder.binop b Ir.And long_trip pricey in
        [ Builder.add b c both ])
  in
  let q5 = match q5accs with [ s ] -> s | _ -> assert false in
  (* Q6: fare histogram (64 buckets of width 10), then the p95 bucket —
     another full scan plus a small hot histogram. *)
  let fhist = Builder.call b "calloc" [ Ir.Const 64; Ir.Const 8 ] in
  Builder.for_loop b ~hint:"q6" ~init:(Ir.Const 0) ~bound:(Ir.Const n)
    (fun b i ->
      let f = Builder.load b ~is_float:true (Builder.gep b fare ~index:i ~scale:8 ()) in
      let bucket =
        Builder.fp_to_si b (Builder.fbinop b Ir.Fdiv f (Ir.Constf 10.0))
      in
      let lt = Builder.icmp b Ir.Lt bucket (Ir.Const 63) in
      let bucket = Builder.select b lt bucket (Ir.Const 63) in
      let hptr = Builder.gep b fhist ~index:bucket ~scale:8 () in
      let c = Builder.load b hptr in
      Builder.store b (Builder.add b c (Ir.Const 1)) ~ptr:hptr);
  let threshold = n * 95 / 100 in
  let q6accs =
    Builder.for_loop_acc b ~hint:"q6p" ~init:(Ir.Const 0) ~bound:(Ir.Const 64)
      ~accs:[ Ir.Const 0; Ir.Const 0 ]
      (fun b ~iv:bucket ~accs ->
        let seen, found =
          match accs with [ x; y ] -> (x, y) | _ -> assert false
        in
        let c = Builder.load b (Builder.gep b fhist ~index:bucket ~scale:8 ()) in
        let seen' = Builder.add b seen c in
        (* record the first bucket where the running count crosses 95% *)
        let crossed =
          Builder.binop b Ir.And
            (Builder.icmp b Ir.Ge seen' (Ir.Const threshold))
            (Builder.icmp b Ir.Eq found (Ir.Const 0))
        in
        let found' =
          Builder.select b crossed (Builder.add b bucket (Ir.Const 1)) found
        in
        [ seen'; found' ])
  in
  let q6 = match q6accs with [ _; f ] -> f | _ -> assert false in
  (* Q4: group-by zone, then per-group mean fare. *)
  Builder.for_loop b ~hint:"q4cnt" ~init:(Ir.Const 0) ~bound:(Ir.Const n)
    (fun b i ->
      let z = Builder.load b ~size:4 (Builder.gep b zone ~index:i ~scale:4 ()) in
      let cptr = Builder.gep b counts ~index:z ~scale:8 () in
      let c = Builder.load b cptr in
      Builder.store b (Builder.add b c (Ir.Const 1)) ~ptr:cptr);
  (* exclusive prefix sum into offsets (and a scratch copy in pos) *)
  let offaccs =
    Builder.for_loop_acc b ~hint:"q4off" ~init:(Ir.Const 0) ~bound:(Ir.Const g)
      ~accs:[ Ir.Const 0 ]
      (fun b ~iv:z ~accs ->
        let run = match accs with [ s ] -> s | _ -> assert false in
        Builder.store b run ~ptr:(Builder.gep b offsets ~index:z ~scale:8 ());
        Builder.store b run ~ptr:(Builder.gep b pos ~index:z ~scale:8 ());
        let c = Builder.load b (Builder.gep b counts ~index:z ~scale:8 ()) in
        [ Builder.add b run c ])
  in
  let total = match offaccs with [ s ] -> s | _ -> assert false in
  Builder.store b total ~ptr:(Builder.gep b offsets ~index:(Ir.Const g) ~scale:8 ());
  (* scatter row ids into the group index *)
  Builder.for_loop b ~hint:"q4fill" ~init:(Ir.Const 0) ~bound:(Ir.Const n)
    (fun b i ->
      let z = Builder.load b ~size:4 (Builder.gep b zone ~index:i ~scale:4 ()) in
      let pptr = Builder.gep b pos ~index:z ~scale:8 () in
      let slot = Builder.load b pptr in
      Builder.store b ~size:4 i ~ptr:(Builder.gep b idx ~index:slot ~scale:4 ());
      Builder.store b (Builder.add b slot (Ir.Const 1)) ~ptr:pptr);
  (* per-group aggregation: the short low-density loops of Figure 15,
     repeated as a notebook re-aggregates the frame *)
  let q4accs =
    Builder.for_loop_acc b ~hint:"q4rep" ~init:(Ir.Const 0)
      ~bound:(Ir.Const p.agg_repeat) ~accs:[ Ir.Const 0 ]
      (fun b ~iv:_ ~accs ->
      let outer_acc = match accs with [ s ] -> s | _ -> assert false in
      let inner_accs =
    Builder.for_loop_acc b ~hint:"q4agg" ~init:(Ir.Const 0) ~bound:(Ir.Const g)
      ~accs:[ outer_acc ]
      (fun b ~iv:z ~accs ->
        let acc = match accs with [ s ] -> s | _ -> assert false in
        let lo = Builder.load b (Builder.gep b offsets ~index:z ~scale:8 ()) in
        let hi =
          Builder.load b
            (Builder.gep b offsets ~index:(Builder.add b z (Ir.Const 1)) ~scale:8 ())
        in
        let inner =
          Builder.for_loop_acc b ~hint:"q4grp" ~init:lo ~bound:hi
            ~accs:[ Ir.Constf 0.0 ]
            (fun b ~iv:j ~accs ->
              let s = match accs with [ s ] -> s | _ -> assert false in
              let row = Builder.load b ~size:4 (Builder.gep b idx ~index:j ~scale:4 ()) in
              let f =
                Builder.load b ~is_float:true
                  (Builder.gep b fare ~index:row ~scale:8 ())
              in
              [ Builder.call b "facc" [ s; f ] ])
        in
        let s = match inner with [ s ] -> s | _ -> assert false in
        let cnt = Builder.sub b hi lo in
        let nonempty = Builder.icmp b Ir.Gt cnt (Ir.Const 0) in
        let gmean =
          Builder.fbinop b Ir.Fdiv s (Builder.si_to_fp b (Builder.select b nonempty cnt (Ir.Const 1)))
        in
        let q = Builder.fp_to_si b (Builder.fbinop b Ir.Fmul gmean (Ir.Constf 8.0)) in
        let contrib = Builder.select b nonempty q (Ir.Const 0) in
        [ Builder.binop b Ir.And (Builder.add b acc contrib) (Ir.Const checksum_mask) ])
      in
      [ (match inner_accs with [ s ] -> s | _ -> assert false) ])
  in
  let q4 = match q4accs with [ s ] -> s | _ -> assert false in
  (* Q7: per-group max trip distance — more of the short low-density
     loops that Figure 15 is about. *)
  let q7accs =
    Builder.for_loop_acc b ~hint:"q7rep" ~init:(Ir.Const 0)
      ~bound:(Ir.Const p.agg_repeat) ~accs:[ Ir.Const 0 ]
      (fun b ~iv:_ ~accs ->
      let outer_acc = match accs with [ s ] -> s | _ -> assert false in
      let inner_accs =
    Builder.for_loop_acc b ~hint:"q7agg" ~init:(Ir.Const 0) ~bound:(Ir.Const g)
      ~accs:[ outer_acc ]
      (fun b ~iv:z ~accs ->
        let acc = match accs with [ s ] -> s | _ -> assert false in
        let lo = Builder.load b (Builder.gep b offsets ~index:z ~scale:8 ()) in
        let hi =
          Builder.load b
            (Builder.gep b offsets ~index:(Builder.add b z (Ir.Const 1)) ~scale:8 ())
        in
        let inner =
          Builder.for_loop_acc b ~hint:"q7grp" ~init:lo ~bound:hi
            ~accs:[ Ir.Constf 0.0 ]
            (fun b ~iv:j ~accs ->
              let mx = match accs with [ s ] -> s | _ -> assert false in
              let row = Builder.load b ~size:4 (Builder.gep b idx ~index:j ~scale:4 ()) in
              let d =
                Builder.load b ~is_float:true
                  (Builder.gep b dist ~index:row ~scale:8 ())
              in
              [ Builder.call b "fsel_max" [ d; mx ] ])
        in
        let mx = match inner with [ s ] -> s | _ -> assert false in
        let q = Builder.fp_to_si b (Builder.fbinop b Ir.Fmul mx (Ir.Constf 2.0)) in
        [ Builder.binop b Ir.And (Builder.add b acc q) (Ir.Const checksum_mask) ])
      in
      [ (match inner_accs with [ s ] -> s | _ -> assert false) ])
  in
  let q7 = match q7accs with [ s ] -> s | _ -> assert false in
  let ck =
    Builder.binop b Ir.And
      (Builder.add b
         (Builder.add b
            (Builder.add b (Builder.add b (Builder.add b (Builder.add b q1 q2) q3) q4) q5)
            q6)
         q7)
      (Ir.Const checksum_mask)
  in
  Builder.ret b (Some ck);
  Verifier.check_module m;
  m

(* Host reference, mirroring the IR arithmetic exactly. *)
let reference p =
  let n = p.rows and g = p.groups in
  let q1sum = ref 0.0 in
  for i = 0 to n - 1 do
    q1sum := !q1sum +. dist_of i
  done;
  let q1 = int_of_float (!q1sum /. float_of_int n *. 1000.0) in
  let hist = Array.make 8 0 in
  for i = 0 to n - 1 do
    hist.(pc_of i) <- hist.(pc_of i) + 1
  done;
  let q2 = ref 0 in
  for c = 0 to 7 do
    q2 := !q2 + (hist.(c) * c)
  done;
  let q3max = ref neg_infinity in
  for i = 0 to n - 1 do
    if fare_of i > !q3max then q3max := fare_of i
  done;
  let q3 = int_of_float (!q3max *. 100.0) in
  let q5 = ref 0 in
  for i = 0 to n - 1 do
    if dist_of i > 300.0 && fare_of i > 500.0 then incr q5
  done;
  let fhist = Array.make 64 0 in
  for i = 0 to n - 1 do
    let bucket = int_of_float (fare_of i /. 10.0) in
    let bucket = if bucket < 63 then bucket else 63 in
    fhist.(bucket) <- fhist.(bucket) + 1
  done;
  let threshold = n * 95 / 100 in
  let q6 = ref 0 in
  let seen = ref 0 in
  for bucket = 0 to 63 do
    seen := !seen + fhist.(bucket);
    if !seen >= threshold && !q6 = 0 then q6 := bucket + 1
  done;
  let counts = Array.make (g + 1) 0 in
  for i = 0 to n - 1 do
    let z = zone_of p i in
    counts.(z) <- counts.(z) + 1
  done;
  let offsets = Array.make (g + 1) 0 in
  let pos = Array.make (g + 1) 0 in
  let run = ref 0 in
  for z = 0 to g - 1 do
    offsets.(z) <- !run;
    pos.(z) <- !run;
    run := !run + counts.(z)
  done;
  offsets.(g) <- !run;
  let idx = Array.make n 0 in
  for i = 0 to n - 1 do
    let z = zone_of p i in
    idx.(pos.(z)) <- i;
    pos.(z) <- pos.(z) + 1
  done;
  let q4 = ref 0 in
  for _rep = 1 to p.agg_repeat do
    for z = 0 to g - 1 do
      let lo = offsets.(z) and hi = offsets.(z + 1) in
      let s = ref 0.0 in
      for j = lo to hi - 1 do
        s := !s +. fare_of idx.(j)
      done;
      let cnt = hi - lo in
      if cnt > 0 then begin
        let gmean = !s /. float_of_int cnt in
        q4 := (!q4 + int_of_float (gmean *. 8.0)) land checksum_mask
      end
    done
  done;
  let q7 = ref 0 in
  for _rep = 1 to p.agg_repeat do
    for z = 0 to g - 1 do
      let lo = offsets.(z) and hi = offsets.(z + 1) in
      let mx = ref 0.0 in
      for j = lo to hi - 1 do
        if dist_of idx.(j) > !mx then mx := dist_of idx.(j)
      done;
      q7 := (!q7 + int_of_float (!mx *. 2.0)) land checksum_mask
    done
  done;
  (q1 + !q2 + q3 + !q4 + !q5 + !q6 + !q7) land checksum_mask

let checksum p = reference p

(* AIFM port: the same queries, hand-written against the remote data
   structures. Loop-control compute is charged at one 4-wide-issue cycle
   per ~4 instructions, matching the interpreter's charging of the IR
   versions. *)
let loop_overhead = 3

let run_aifm ?(cost = Cost_model.default) ?(object_size = 4096) ~local_budget p
    =
  let n = p.rows and g = p.groups in
  let clock = Clock.create () in
  let store = Memstore.create () in
  let ctx =
    Aifm.Remote.create_ctx cost clock store ~object_size ~local_budget
  in
  let module A = Aifm.Remote.Array in
  let zone = A.create ctx ~elem_size:4 ~len:n in
  let pc = A.create ctx ~elem_size:4 ~len:n in
  let dist = A.create ctx ~elem_size:8 ~len:n in
  let fare = A.create ctx ~elem_size:8 ~len:n in
  let idx = A.create ctx ~elem_size:4 ~len:n in
  let counts = A.create ctx ~elem_size:8 ~len:(g + 1) in
  let offsets = A.create ctx ~elem_size:8 ~len:(g + 1) in
  let pos = A.create ctx ~elem_size:8 ~len:(g + 1) in
  let hist = A.create ctx ~elem_size:8 ~len:8 in
  for i = 0 to n - 1 do
    A.set zone i (zone_of p i);
    A.set pc i (pc_of i);
    A.set_float dist i (dist_of i);
    A.set_float fare i (fare_of i)
  done;
  Clock.reset clock;
  (* Q1 *)
  let q1sum = ref 0.0 in
  A.iter_prefetched_float dist (fun _ d ->
      Clock.tick clock loop_overhead;
      q1sum := !q1sum +. d);
  let q1 = int_of_float (!q1sum /. float_of_int n *. 1000.0) in
  (* Q2 *)
  A.iter_prefetched pc (fun _ v ->
      Clock.tick clock loop_overhead;
      A.set hist v (A.get hist v + 1));
  let q2 = ref 0 in
  for c = 0 to 7 do
    q2 := !q2 + (A.get hist c * c)
  done;
  (* Q3 *)
  let q3max = ref neg_infinity in
  A.iter_prefetched_float fare (fun _ f ->
      Clock.tick clock loop_overhead;
      if f > !q3max then q3max := f);
  let q3 = int_of_float (!q3max *. 100.0) in
  (* Q5 *)
  let q5 = ref 0 in
  A.iter_prefetched_float dist (fun i d ->
      Clock.tick clock loop_overhead;
      if d > 300.0 then
        if A.get_float fare i > 500.0 then incr q5);
  (* Q6 *)
  let fhist = A.create ctx ~elem_size:8 ~len:64 in
  A.iter_prefetched_float fare (fun _ f ->
      Clock.tick clock loop_overhead;
      let bucket = int_of_float (f /. 10.0) in
      let bucket = if bucket < 63 then bucket else 63 in
      A.set fhist bucket (A.get fhist bucket + 1));
  let threshold = n * 95 / 100 in
  let q6 = ref 0 in
  let seen6 = ref 0 in
  for bucket = 0 to 63 do
    Clock.tick clock loop_overhead;
    seen6 := !seen6 + A.get fhist bucket;
    if !seen6 >= threshold && !q6 = 0 then q6 := bucket + 1
  done;
  (* Q4 *)
  A.iter_prefetched zone (fun _ z ->
      Clock.tick clock loop_overhead;
      A.set counts z (A.get counts z + 1));
  let run = ref 0 in
  for z = 0 to g - 1 do
    Clock.tick clock loop_overhead;
    A.set offsets z !run;
    A.set pos z !run;
    run := !run + A.get counts z
  done;
  A.set offsets g !run;
  A.iter_prefetched zone (fun i z ->
      Clock.tick clock loop_overhead;
      let slot = A.get pos z in
      A.set idx slot i;
      A.set pos z (slot + 1));
  (* The frame is time-sorted and grouped by minute, so a group's rows
     are a contiguous slice: the AIFM port aggregates them through the
     remote array's ranged iterator (per-object dereference) rather than
     a smart-pointer get per row. *)
  let q4 = ref 0 in
  for _rep = 1 to p.agg_repeat do
    for z = 0 to g - 1 do
      Clock.tick clock loop_overhead;
      let lo = A.get offsets z and hi = A.get offsets (z + 1) in
      let cnt = hi - lo in
      if cnt > 0 then begin
        let lo_row = A.get idx lo in
        let s =
          A.fold_range_float fare ~lo:lo_row ~hi:(lo_row + cnt) ~init:0.0
            (fun acc f ->
              Clock.tick clock loop_overhead;
              acc +. f)
        in
        let gmean = s /. float_of_int cnt in
        q4 := (!q4 + int_of_float (gmean *. 8.0)) land checksum_mask
      end
    done
  done;
  let q7 = ref 0 in
  for _rep = 1 to p.agg_repeat do
    for z = 0 to g - 1 do
      Clock.tick clock loop_overhead;
      let lo = A.get offsets z and hi = A.get offsets (z + 1) in
      let cnt = hi - lo in
      let mx =
        if cnt > 0 then begin
          let lo_row = A.get idx lo in
          A.fold_range_float dist ~lo:lo_row ~hi:(lo_row + cnt) ~init:0.0
            (fun acc d ->
              Clock.tick clock loop_overhead;
              if d > acc then d else acc)
        end
        else 0.0
      in
      q7 := (!q7 + int_of_float (mx *. 2.0)) land checksum_mask
    done
  done;
  let ck = (q1 + !q2 + q3 + !q4 + !q5 + !q6 + !q7) land checksum_mask in
  (ck, clock)

let workload p =
  {
    Workload.name = "analytics";
    build = build p;
    blobs = lazy [];
    working_set = working_set_bytes p;
    oracle = lazy (checksum p);
    op_classes = [];
  }
