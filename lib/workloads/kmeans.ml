type params = { n : int; dims : int; clusters : int; iters : int }

let default_params ~n = { n; dims = 4; clusters = 10; iters = 2 }

let checksum_mask = 0x3FFFFFFF

(* Synthetic coordinate for point [i], dimension [d]. *)
let coord i d = float_of_int (((i * 7) + (d * 13)) mod 100)

let working_set_bytes p =
  (* pts + dists dominate; cent/sums/counts are small. *)
  (p.dims * p.n * 8) + (p.clusters * p.n * 8) + (p.n * 8)
  + (2 * p.clusters * p.dims * 8)
  + (p.clusters * 8)

let op_classes = [ (0, "iteration") ]

let build p () =
  let { n; dims; clusters = k; iters } = p in
  let m = Ir.create_module () in
  (* Helper functions exercise the interprocedural summaries: [sq_diff]
     is pure (custody-preserving across the hot inner loop), and
     [alloc_f64] is a wrapper allocator whose return provenance is
     heap. *)
  let bh = Builder.create m ~name:"sq_diff" ~nparams:2 in
  let d = Builder.fbinop bh Ir.Fsub (Builder.arg 0) (Builder.arg 1) in
  Builder.ret bh (Some (Builder.fbinop bh Ir.Fmul d d));
  let ba = Builder.create m ~name:"alloc_f64" ~nparams:1 in
  let bytes = Builder.mul ba (Builder.arg 0) (Ir.Const 8) in
  Builder.ret ba (Some (Builder.call ba "malloc" [ bytes ]));
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let f64 = 8 in
  let pts = Builder.call b "alloc_f64" [ Ir.Const (dims * n) ] in
  let cent = Builder.call b "alloc_f64" [ Ir.Const (k * dims) ] in
  let dists = Builder.call b "alloc_f64" [ Ir.Const (n * k) ] in
  let assign = Builder.call b "alloc_f64" [ Ir.Const n ] in
  let sums = Builder.call b "alloc_f64" [ Ir.Const (k * dims) ] in
  let counts = Builder.call b "alloc_f64" [ Ir.Const k ] in
  (* pts[d*n + i] = coord i d *)
  Builder.for_loop b ~hint:"initd" ~init:(Ir.Const 0) ~bound:(Ir.Const dims)
    (fun b d ->
      Builder.for_loop b ~hint:"initp" ~init:(Ir.Const 0) ~bound:(Ir.Const n)
        (fun b i ->
          let raw =
            Builder.binop b Ir.Srem
              (Builder.add b
                 (Builder.mul b i (Ir.Const 7))
                 (Builder.mul b d (Ir.Const 13)))
              (Ir.Const 100)
          in
          let v = Builder.si_to_fp b raw in
          let idx = Builder.add b (Builder.mul b d (Ir.Const n)) i in
          let ptr = Builder.gep b pts ~index:idx ~scale:f64 () in
          Builder.store b ~is_float:true v ~ptr));
  (* centroid c = point c *)
  Builder.for_loop b ~hint:"initc" ~init:(Ir.Const 0) ~bound:(Ir.Const k)
    (fun b c ->
      Builder.for_loop b ~hint:"initcd" ~init:(Ir.Const 0)
        ~bound:(Ir.Const dims) (fun b d ->
          let src_idx = Builder.add b (Builder.mul b d (Ir.Const n)) c in
          let src = Builder.gep b pts ~index:src_idx ~scale:f64 () in
          let v = Builder.load b ~is_float:true src in
          let dst_idx = Builder.add b (Builder.mul b c (Ir.Const dims)) d in
          let dst = Builder.gep b cent ~index:dst_idx ~scale:f64 () in
          Builder.store b ~is_float:true v ~ptr:dst));
  ignore (Builder.call b "!bench_begin" []);
  Builder.for_loop b ~hint:"lloyd" ~init:(Ir.Const 0) ~bound:(Ir.Const iters)
    (fun b _it ->
      ignore (Builder.call b "!op_begin" [ Ir.Const 0 ]);
      (* Phase Z: clear the distance matrix (long unit-stride scan). *)
      Builder.for_loop b ~hint:"zero" ~init:(Ir.Const 0)
        ~bound:(Ir.Const (n * k)) (fun b i ->
          let ptr = Builder.gep b dists ~index:i ~scale:f64 () in
          Builder.store b ~is_float:true (Ir.Constf 0.0) ~ptr);
      (* Phase A: dists[i*k + c] += (pts[d*n+i] - cent[c*dims+d])^2,
         dimension-major: the i-loops are long and strided. *)
      Builder.for_loop b ~hint:"distc" ~init:(Ir.Const 0) ~bound:(Ir.Const k)
        (fun b c ->
          Builder.for_loop b ~hint:"distd" ~init:(Ir.Const 0)
            ~bound:(Ir.Const dims) (fun b d ->
              let cidx = Builder.add b (Builder.mul b c (Ir.Const dims)) d in
              let cptr = Builder.gep b cent ~index:cidx ~scale:f64 () in
              let cv = Builder.load b ~is_float:true cptr in
              let dbase = Builder.mul b d (Ir.Const n) in
              Builder.for_loop b ~hint:"disti" ~init:(Ir.Const 0)
                ~bound:(Ir.Const n) (fun b i ->
                  let pidx = Builder.add b dbase i in
                  let pptr = Builder.gep b pts ~index:pidx ~scale:f64 () in
                  let pv = Builder.load b ~is_float:true pptr in
                  let didx = Builder.add b (Builder.mul b i (Ir.Const k)) c in
                  let dptr = Builder.gep b dists ~index:didx ~scale:f64 () in
                  let old = Builder.load b ~is_float:true dptr in
                  (* The helper call sits between the dists load and the
                     store-back, so the read-modify-write elision on dptr
                     only holds if custody survives the call — exactly
                     what the interprocedural summary proves. Float op
                     order (fsub, fmul, fadd) matches the old inline
                     form, so checksums are unchanged. *)
                  let sq = Builder.call b "sq_diff" [ pv; cv ] in
                  let nu = Builder.fbinop b Ir.Fadd old sq in
                  Builder.store b ~is_float:true nu ~ptr:dptr)));
      (* Phase B: per-point argmin over the k candidates — a short inner
         loop (trip = k) that chunking cannot amortize. *)
      Builder.for_loop b ~hint:"argmin" ~init:(Ir.Const 0) ~bound:(Ir.Const n)
        (fun b i ->
          let ibase = Builder.mul b i (Ir.Const k) in
          let accs =
            Builder.for_loop_acc b ~hint:"argc" ~init:(Ir.Const 0)
              ~bound:(Ir.Const k)
              ~accs:[ Ir.Constf infinity; Ir.Const 0 ]
              (fun b ~iv:c ~accs ->
                let best, besti =
                  match accs with
                  | [ x; y ] -> (x, y)
                  | _ -> assert false
                in
                let didx = Builder.add b ibase c in
                let dptr = Builder.gep b dists ~index:didx ~scale:f64 () in
                let dv = Builder.load b ~is_float:true dptr in
                let better = Builder.fcmp b Ir.Lt dv best in
                [
                  Builder.select b better dv best;
                  Builder.select b better c besti;
                ])
          in
          let besti = match accs with [ _; y ] -> y | _ -> assert false in
          let aptr = Builder.gep b assign ~index:i ~scale:8 () in
          Builder.store b besti ~ptr:aptr);
      (* Phase C: accumulate new centroids. *)
      Builder.for_loop b ~hint:"clrs" ~init:(Ir.Const 0)
        ~bound:(Ir.Const (k * dims)) (fun b i ->
          let ptr = Builder.gep b sums ~index:i ~scale:f64 () in
          Builder.store b ~is_float:true (Ir.Constf 0.0) ~ptr);
      Builder.for_loop b ~hint:"clrc" ~init:(Ir.Const 0) ~bound:(Ir.Const k)
        (fun b c ->
          let ptr = Builder.gep b counts ~index:c ~scale:8 () in
          Builder.store b (Ir.Const 0) ~ptr);
      Builder.for_loop b ~hint:"acc" ~init:(Ir.Const 0) ~bound:(Ir.Const n)
        (fun b i ->
          let aptr = Builder.gep b assign ~index:i ~scale:8 () in
          let a = Builder.load b aptr in
          let cptr = Builder.gep b counts ~index:a ~scale:8 () in
          let cnt = Builder.load b cptr in
          Builder.store b (Builder.add b cnt (Ir.Const 1)) ~ptr:cptr;
          Builder.for_loop b ~hint:"accd" ~init:(Ir.Const 0)
            ~bound:(Ir.Const dims) (fun b d ->
              let pidx = Builder.add b (Builder.mul b d (Ir.Const n)) i in
              let pptr = Builder.gep b pts ~index:pidx ~scale:f64 () in
              let pv = Builder.load b ~is_float:true pptr in
              let sidx = Builder.add b (Builder.mul b a (Ir.Const dims)) d in
              let sptr = Builder.gep b sums ~index:sidx ~scale:f64 () in
              let sv = Builder.load b ~is_float:true sptr in
              Builder.store b ~is_float:true
                (Builder.fbinop b Ir.Fadd sv pv)
                ~ptr:sptr));
      (* Phase D: normalize. *)
      Builder.for_loop b ~hint:"norm" ~init:(Ir.Const 0) ~bound:(Ir.Const k)
        (fun b c ->
          let cptr = Builder.gep b counts ~index:c ~scale:8 () in
          let cnt = Builder.load b cptr in
          let nonzero = Builder.icmp b Ir.Gt cnt (Ir.Const 0) in
          Builder.if_then b ~cond:nonzero (fun b ->
              let cntf = Builder.si_to_fp b cnt in
              Builder.for_loop b ~hint:"normd" ~init:(Ir.Const 0)
                ~bound:(Ir.Const dims) (fun b d ->
                  let idx = Builder.add b (Builder.mul b c (Ir.Const dims)) d in
                  let sptr = Builder.gep b sums ~index:idx ~scale:f64 () in
                  let sv = Builder.load b ~is_float:true sptr in
                  let dptr = Builder.gep b cent ~index:idx ~scale:f64 () in
                  Builder.store b ~is_float:true
                    (Builder.fbinop b Ir.Fdiv sv cntf)
                    ~ptr:dptr)));
      ignore (Builder.call b "!op_end" []));
  (* Checksum: assignments plus quantized centroids. *)
  let accs =
    Builder.for_loop_acc b ~hint:"ck" ~init:(Ir.Const 0) ~bound:(Ir.Const n)
      ~accs:[ Ir.Const 0 ]
      (fun b ~iv:i ~accs ->
        let acc = match accs with [ a ] -> a | _ -> assert false in
        let aptr = Builder.gep b assign ~index:i ~scale:8 () in
        let a = Builder.load b aptr in
        [
          Builder.binop b Ir.And
            (Builder.add b (Builder.mul b acc (Ir.Const 31)) a)
            (Ir.Const checksum_mask);
        ])
  in
  let ck0 = match accs with [ a ] -> a | _ -> assert false in
  let accs =
    Builder.for_loop_acc b ~hint:"ck2" ~init:(Ir.Const 0)
      ~bound:(Ir.Const (k * dims)) ~accs:[ ck0 ]
      (fun b ~iv:i ~accs ->
        let acc = match accs with [ a ] -> a | _ -> assert false in
        let cptr = Builder.gep b cent ~index:i ~scale:f64 () in
        let cv = Builder.load b ~is_float:true cptr in
        let q = Builder.fp_to_si b (Builder.fbinop b Ir.Fmul cv (Ir.Constf 16.0)) in
        [
          Builder.binop b Ir.And (Builder.add b acc q) (Ir.Const checksum_mask);
        ])
  in
  let ck = match accs with [ a ] -> a | _ -> assert false in
  Builder.ret b (Some ck);
  Verifier.check_module m;
  m

(* Reference implementation mirroring the IR's float operation order
   exactly, so results match bit-for-bit. *)
let checksum p =
  let { n; dims; clusters = k; iters } = p in
  let pts = Array.init (dims * n) (fun di -> coord (di mod n) (di / n)) in
  let cent =
    Array.init (k * dims) (fun cd -> pts.(((cd mod dims) * n) + (cd / dims)))
  in
  let dists = Array.make (n * k) 0.0 in
  let assign = Array.make n 0 in
  let sums = Array.make (k * dims) 0.0 in
  let counts = Array.make k 0 in
  for _it = 0 to iters - 1 do
    Array.fill dists 0 (n * k) 0.0;
    for c = 0 to k - 1 do
      for d = 0 to dims - 1 do
        let cv = cent.((c * dims) + d) in
        for i = 0 to n - 1 do
          let diff = pts.((d * n) + i) -. cv in
          dists.((i * k) + c) <- dists.((i * k) + c) +. (diff *. diff)
        done
      done
    done;
    for i = 0 to n - 1 do
      let best = ref infinity and besti = ref 0 in
      for c = 0 to k - 1 do
        let dv = dists.((i * k) + c) in
        if dv < !best then begin
          best := dv;
          besti := c
        end
      done;
      assign.(i) <- !besti
    done;
    Array.fill sums 0 (k * dims) 0.0;
    Array.fill counts 0 k 0;
    for i = 0 to n - 1 do
      let a = assign.(i) in
      counts.(a) <- counts.(a) + 1;
      for d = 0 to dims - 1 do
        sums.((a * dims) + d) <- sums.((a * dims) + d) +. pts.((d * n) + i)
      done
    done;
    for c = 0 to k - 1 do
      if counts.(c) > 0 then
        for d = 0 to dims - 1 do
          cent.((c * dims) + d) <-
            sums.((c * dims) + d) /. float_of_int counts.(c)
        done
    done
  done;
  let ck = ref 0 in
  for i = 0 to n - 1 do
    ck := ((!ck * 31) + assign.(i)) land checksum_mask
  done;
  for i = 0 to (k * dims) - 1 do
    ck := (!ck + int_of_float (cent.(i) *. 16.0)) land checksum_mask
  done;
  !ck

let workload p =
  {
    Workload.name = "kmeans";
    build = build p;
    blobs = lazy [];
    working_set = working_set_bytes p;
    oracle = lazy (checksum p);
    op_classes;
  }
