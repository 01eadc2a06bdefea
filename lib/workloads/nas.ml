type kernel = CG | FT | IS | MG | SP

let kernel_name = function
  | CG -> "cg"
  | FT -> "ft"
  | IS -> "is"
  | MG -> "mg"
  | SP -> "sp"

let all_kernels = [ CG; FT; IS; MG; SP ]

type params = { kernel : kernel; scale : int }

(* Table 3 proportions: CG 9 GB, FT 6, IS 34, MG 27, SP 12. The default
   scales put each kernel at a few MiB with roughly those ratios. *)
let default_params kernel = { kernel; scale = 1 }

let paper_memory_gb = function CG -> 9 | FT -> 6 | IS -> 34 | MG -> 27 | SP -> 12
let paper_loc = function CG -> 586 | FT -> 756 | IS -> 558 | MG -> 941 | SP -> 2013

let checksum_mask = 0x3FFFFFFF

(* -- per-kernel geometry -------------------------------------------------- *)

(* Each kernel has one size knob: CG's rows, IS's keys, or the edge of
   FT's, MG's and SP's cubic grid (nx = ny = nz). Class [scale] multiplies
   class 1's knob. *)
let class1 = function
  | CG -> 12_000
  | FT -> 40
  | IS -> 600_000
  | MG -> 40
  | SP -> 56

let size p = class1 p.kernel * p.scale

let cg_nnz = 40
let is_buckets = 2048

let working_set kernel size =
  match kernel with
  | CG -> (size * cg_nnz * (8 + 4)) + (5 * size * 8)
  | FT -> size * size * size * 16
  | IS -> (2 * size * 4) + (2 * is_buckets * 8)
  | MG ->
      let d = size in
      let fine = d * d * d * 8 in
      let coarse = d / 2 * (d / 2) * (d / 2) * 8 in
      (2 * fine) + coarse
  | SP -> 2 * size * size * size * 8

let working_set_bytes p = working_set p.kernel (size p)

(* ========================= CG ========================= *)

let cg_col n i j = ((i * 7) + (j * 131)) mod n
let cg_val i j = float_of_int (((i + j) mod 10) + 1)

let cg_iters = 4

let build_cg ~n b =
  let vals = Builder.call b "malloc" [ Ir.Const (n * cg_nnz * 8) ] in
  let cols = Builder.call b "malloc" [ Ir.Const (n * cg_nnz * 4) ] in
  let x = Builder.call b "malloc" [ Ir.Const (n * 8) ] in
  let z = Builder.call b "malloc" [ Ir.Const (n * 8) ] in
  let r = Builder.call b "malloc" [ Ir.Const (n * 8) ] in
  let p = Builder.call b "malloc" [ Ir.Const (n * 8) ] in
  let q = Builder.call b "malloc" [ Ir.Const (n * 8) ] in
  let fvec arr i = Builder.gep b arr ~index:i ~scale:8 () in
  ignore fvec;
  Builder.for_loop b ~hint:"cg.init" ~init:(Ir.Const 0) ~bound:(Ir.Const n)
    (fun b i ->
      (* non-uniform rhs so the solve does not converge degenerately *)
      let xv =
        Builder.fbinop b Ir.Fmul
          (Builder.si_to_fp b
             (Builder.add b (Builder.binop b Ir.Srem i (Ir.Const 13))
                (Ir.Const 1)))
          (Ir.Constf 0.25)
      in
      Builder.store b ~is_float:true xv
        ~ptr:(Builder.gep b x ~index:i ~scale:8 ());
      Builder.for_loop b ~hint:"cg.initj" ~init:(Ir.Const 0)
        ~bound:(Ir.Const cg_nnz) (fun b j ->
          let e = Builder.add b (Builder.mul b i (Ir.Const cg_nnz)) j in
          let col =
            Builder.binop b Ir.Srem
              (Builder.add b
                 (Builder.mul b i (Ir.Const 7))
                 (Builder.mul b j (Ir.Const 131)))
              (Ir.Const n)
          in
          Builder.store b ~size:4 col
            ~ptr:(Builder.gep b cols ~index:e ~scale:4 ());
          let v =
            Builder.si_to_fp b
              (Builder.add b
                 (Builder.binop b Ir.Srem (Builder.add b i j) (Ir.Const 10))
                 (Ir.Const 1))
          in
          Builder.store b ~is_float:true v
            ~ptr:(Builder.gep b vals ~index:e ~scale:8 ())));
  ignore (Builder.call b "!bench_begin" []);
  (* The NAS CG inner solve: z = 0, r = x, p = r; then cg_iters rounds of
     q = A p; alpha = rho / (p.q); z += alpha p; r -= alpha q;
     beta = rho'/rho; p = r + beta p. Scalars are carried in a small heap
     cell the way the Fortran-derived C code keeps them in memory. *)
  let scal = Builder.call b "malloc" [ Ir.Const 16 ] in
  (* scal[0] = rho *)
  let rho0 =
    Builder.for_loop_acc b ~hint:"cg.rho0" ~init:(Ir.Const 0)
      ~bound:(Ir.Const n) ~accs:[ Ir.Constf 0.0 ]
      (fun b ~iv:i ~accs ->
        let acc = match accs with [ a ] -> a | _ -> assert false in
        let xv = Builder.load b ~is_float:true (Builder.gep b x ~index:i ~scale:8 ()) in
        Builder.store b ~is_float:true (Ir.Constf 0.0)
          ~ptr:(Builder.gep b z ~index:i ~scale:8 ());
        Builder.store b ~is_float:true xv
          ~ptr:(Builder.gep b r ~index:i ~scale:8 ());
        Builder.store b ~is_float:true xv
          ~ptr:(Builder.gep b p ~index:i ~scale:8 ());
        [ Builder.fbinop b Ir.Fadd acc (Builder.fbinop b Ir.Fmul xv xv) ])
  in
  let rho0 = match rho0 with [ a ] -> a | _ -> assert false in
  Builder.store b ~is_float:true rho0 ~ptr:scal;
  Builder.for_loop b ~hint:"cg.iter" ~init:(Ir.Const 0)
    ~bound:(Ir.Const cg_iters) (fun b _it ->
      (* q = A p : the CSR mat-vec with the irregular gather on p *)
      Builder.for_loop b ~hint:"cg.row" ~init:(Ir.Const 0) ~bound:(Ir.Const n)
        (fun b i ->
          let rbase = Builder.mul b i (Ir.Const cg_nnz) in
          let sums =
            Builder.for_loop_acc b ~hint:"cg.nnz" ~init:(Ir.Const 0)
              ~bound:(Ir.Const cg_nnz) ~accs:[ Ir.Constf 0.0 ]
              (fun b ~iv:j ~accs ->
                let sacc = match accs with [ a ] -> a | _ -> assert false in
                let e = Builder.add b rbase j in
                let a =
                  Builder.load b ~is_float:true
                    (Builder.gep b vals ~index:e ~scale:8 ())
                in
                let c =
                  Builder.load b ~size:4
                    (Builder.gep b cols ~index:e ~scale:4 ())
                in
                let pv =
                  Builder.load b ~is_float:true
                    (Builder.gep b p ~index:c ~scale:8 ())
                in
                [ Builder.fbinop b Ir.Fadd sacc (Builder.fbinop b Ir.Fmul a pv) ])
          in
          let sum = match sums with [ a ] -> a | _ -> assert false in
          (* strong diagonal keeps the solve bounded (the NAS generator
             makes A diagonally dominant the same way) *)
          let pv_i =
            Builder.load b ~is_float:true (Builder.gep b p ~index:i ~scale:8 ())
          in
          let sum =
            Builder.fbinop b Ir.Fadd sum
              (Builder.fbinop b Ir.Fmul (Ir.Constf 500.0) pv_i)
          in
          Builder.store b ~is_float:true sum
            ~ptr:(Builder.gep b q ~index:i ~scale:8 ()));
      (* d = p . q *)
      let daccs =
        Builder.for_loop_acc b ~hint:"cg.dot" ~init:(Ir.Const 0)
          ~bound:(Ir.Const n) ~accs:[ Ir.Constf 0.0 ]
          (fun b ~iv:i ~accs ->
            let acc = match accs with [ a ] -> a | _ -> assert false in
            let pv = Builder.load b ~is_float:true (Builder.gep b p ~index:i ~scale:8 ()) in
            let qv = Builder.load b ~is_float:true (Builder.gep b q ~index:i ~scale:8 ()) in
            [ Builder.fbinop b Ir.Fadd acc (Builder.fbinop b Ir.Fmul pv qv) ])
      in
      let d = match daccs with [ a ] -> a | _ -> assert false in
      let rho = Builder.load b ~is_float:true scal in
      let alpha = Builder.fbinop b Ir.Fdiv rho d in
      (* z += alpha p ; r -= alpha q ; rho' = r.r *)
      let rho'accs =
        Builder.for_loop_acc b ~hint:"cg.axpy" ~init:(Ir.Const 0)
          ~bound:(Ir.Const n) ~accs:[ Ir.Constf 0.0 ]
          (fun b ~iv:i ~accs ->
            let acc = match accs with [ a ] -> a | _ -> assert false in
            let zp = Builder.gep b z ~index:i ~scale:8 () in
            let rp = Builder.gep b r ~index:i ~scale:8 () in
            let pv = Builder.load b ~is_float:true (Builder.gep b p ~index:i ~scale:8 ()) in
            let qv = Builder.load b ~is_float:true (Builder.gep b q ~index:i ~scale:8 ()) in
            let zv = Builder.load b ~is_float:true zp in
            let rv = Builder.load b ~is_float:true rp in
            let zv' = Builder.fbinop b Ir.Fadd zv (Builder.fbinop b Ir.Fmul alpha pv) in
            let rv' = Builder.fbinop b Ir.Fsub rv (Builder.fbinop b Ir.Fmul alpha qv) in
            Builder.store b ~is_float:true zv' ~ptr:zp;
            Builder.store b ~is_float:true rv' ~ptr:rp;
            [ Builder.fbinop b Ir.Fadd acc (Builder.fbinop b Ir.Fmul rv' rv') ])
      in
      let rho' = match rho'accs with [ a ] -> a | _ -> assert false in
      let beta = Builder.fbinop b Ir.Fdiv rho' rho in
      Builder.store b ~is_float:true rho' ~ptr:scal;
      (* p = r + beta p *)
      Builder.for_loop b ~hint:"cg.pupd" ~init:(Ir.Const 0) ~bound:(Ir.Const n)
        (fun b i ->
          let pp = Builder.gep b p ~index:i ~scale:8 () in
          let rv = Builder.load b ~is_float:true (Builder.gep b r ~index:i ~scale:8 ()) in
          let pv = Builder.load b ~is_float:true pp in
          Builder.store b ~is_float:true
            (Builder.fbinop b Ir.Fadd rv (Builder.fbinop b Ir.Fmul beta pv))
            ~ptr:pp));
  (* checksum over the solution vector *)
  let accs =
    Builder.for_loop_acc b ~hint:"cg.ck" ~init:(Ir.Const 0) ~bound:(Ir.Const n)
      ~accs:[ Ir.Constf 0.0 ]
      (fun b ~iv:i ~accs ->
        let acc = match accs with [ a ] -> a | _ -> assert false in
        let zv = Builder.load b ~is_float:true (Builder.gep b z ~index:i ~scale:8 ()) in
        [ Builder.fbinop b Ir.Fadd acc zv ])
  in
  let sum = match accs with [ a ] -> a | _ -> assert false in
  Builder.binop b Ir.And
    (Builder.fp_to_si b (Builder.fbinop b Ir.Fmul sum (Ir.Constf 1e6)))
    (Ir.Const checksum_mask)

let checksum_cg ~n =
  let x = Array.init n (fun i -> float_of_int ((i mod 13) + 1) *. 0.25) in
  let z = Array.make n 0.0 in
  let r = Array.make n 0.0 in
  let p = Array.make n 0.0 in
  let q = Array.make n 0.0 in
  let rho = ref 0.0 in
  for i = 0 to n - 1 do
    let xv = x.(i) in
    z.(i) <- 0.0;
    r.(i) <- xv;
    p.(i) <- xv;
    rho := !rho +. (xv *. xv)
  done;
  for _it = 0 to cg_iters - 1 do
    for i = 0 to n - 1 do
      let s = ref 0.0 in
      for j = 0 to cg_nnz - 1 do
        s := !s +. (cg_val i j *. p.(cg_col n i j))
      done;
      q.(i) <- !s +. (500.0 *. p.(i))
    done;
    let d = ref 0.0 in
    for i = 0 to n - 1 do
      d := !d +. (p.(i) *. q.(i))
    done;
    let alpha = !rho /. !d in
    let rho' = ref 0.0 in
    for i = 0 to n - 1 do
      z.(i) <- z.(i) +. (alpha *. p.(i));
      r.(i) <- r.(i) -. (alpha *. q.(i));
      rho' := !rho' +. (r.(i) *. r.(i))
    done;
    let beta = !rho' /. !rho in
    rho := !rho';
    for i = 0 to n - 1 do
      p.(i) <- r.(i) +. (beta *. p.(i))
    done
  done;
  let s = ref 0.0 in
  for i = 0 to n - 1 do
    s := !s +. z.(i)
  done;
  int_of_float (!s *. 1e6) land checksum_mask

(* ========================= FT ========================= *)

(* One sweep per dimension. The element update is written naively: the
   real and imaginary parts are each loaded twice (as unoptimized
   bitcode does after macro expansion); O1's CSE halves the loads. *)
let ft_c = 0.8
let ft_s = 0.6

let build_ft ~d b =
  let total = d * d * d in
  let grid = Builder.call b "malloc" [ Ir.Const (total * 16) ] in
  Builder.for_loop b ~hint:"ft.init" ~init:(Ir.Const 0) ~bound:(Ir.Const total)
    (fun b i ->
      let re = Builder.si_to_fp b (Builder.binop b Ir.Srem i (Ir.Const 97)) in
      let im = Builder.si_to_fp b (Builder.binop b Ir.Srem i (Ir.Const 89)) in
      Builder.store b ~is_float:true re
        ~ptr:(Builder.gep b grid ~index:i ~scale:16 ());
      Builder.store b ~is_float:true im
        ~ptr:(Builder.gep b grid ~index:i ~scale:16 ~offset:8 ()));
  ignore (Builder.call b "!bench_begin" []);
  let sweep stride hint =
    (* Deeply nested: plane / line / element, with the stride of the
       dimension being transformed. *)
    let outer = total / (d * 1) in
    ignore outer;
    Builder.for_loop b ~hint:(hint ^ ".a") ~init:(Ir.Const 0)
      ~bound:(Ir.Const (total / d)) (fun b line ->
        (* base index of this line *)
        let base =
          if stride = 1 then Builder.mul b line (Ir.Const d)
          else begin
            (* lines along a strided dim: base enumerates the other dims *)
            let per = stride in
            let blk = Builder.binop b Ir.Sdiv line (Ir.Const per) in
            let rem = Builder.binop b Ir.Srem line (Ir.Const per) in
            Builder.add b (Builder.mul b blk (Ir.Const (per * d))) rem
          end
        in
        (* FT walks raw pointers through the line (as pointer-heavy FFT
           codes do); the base of each access is the loop-carried pointer
           itself, which defeats the strided-access analysis — the
           "confounded loop analysis" the paper reports for FT. *)
        let rptr0 = Builder.gep b grid ~index:base ~scale:16 () in
        let finals =
          Builder.for_loop_acc b ~hint:(hint ^ ".e") ~init:(Ir.Const 0)
            ~bound:(Ir.Const d) ~accs:[ rptr0 ]
            (fun b ~iv:_ ~accs ->
            let rptr = match accs with [ p ] -> p | _ -> assert false in
            let iptr = Builder.gep b rptr ~index:(Ir.Const 0) ~scale:1 ~offset:8 () in
            (* Redundant and dead loads on purpose: this is what naive
               macro-expanded complex arithmetic looks like before any
               cleanup, and each load gets a guard. *)
            let re1 = Builder.load b ~is_float:true rptr in
            let im1 = Builder.load b ~is_float:true iptr in
            let re2 = Builder.load b ~is_float:true rptr in
            let im2 = Builder.load b ~is_float:true iptr in
            let _dead_re = Builder.load b ~is_float:true rptr in
            let _dead_im = Builder.load b ~is_float:true iptr in
            ignore _dead_re;
            ignore _dead_im;
            let re' =
              Builder.fbinop b Ir.Fsub
                (Builder.fbinop b Ir.Fmul re1 (Ir.Constf ft_c))
                (Builder.fbinop b Ir.Fmul im1 (Ir.Constf ft_s))
            in
            let im' =
              Builder.fbinop b Ir.Fadd
                (Builder.fbinop b Ir.Fmul re2 (Ir.Constf ft_s))
                (Builder.fbinop b Ir.Fmul im2 (Ir.Constf ft_c))
            in
            Builder.store b ~is_float:true re' ~ptr:rptr;
            Builder.store b ~is_float:true im' ~ptr:iptr;
            [ Builder.gep b rptr ~index:(Ir.Const stride) ~scale:16 () ])
        in
        ignore finals)
  in
  sweep 1 "ft.x";
  sweep d "ft.y";
  sweep (d * d) "ft.z";
  let accs =
    Builder.for_loop_acc b ~hint:"ft.ck" ~init:(Ir.Const 0)
      ~bound:(Ir.Const total) ~accs:[ Ir.Constf 0.0 ]
      (fun b ~iv:i ~accs ->
        let s = match accs with [ s ] -> s | _ -> assert false in
        let re = Builder.load b ~is_float:true (Builder.gep b grid ~index:i ~scale:16 ()) in
        [ Builder.fbinop b Ir.Fadd s re ])
  in
  let s = match accs with [ s ] -> s | _ -> assert false in
  Builder.binop b Ir.And
    (Builder.fp_to_si b (Builder.fbinop b Ir.Fdiv s (Ir.Constf 1000.0)))
    (Ir.Const checksum_mask)

let checksum_ft ~d =
  let total = d * d * d in
  let re = Array.init total (fun i -> float_of_int (i mod 97)) in
  let im = Array.init total (fun i -> float_of_int (i mod 89)) in
  let sweep stride =
    for line = 0 to (total / d) - 1 do
      let base =
        if stride = 1 then line * d
        else (line / stride * (stride * d)) + (line mod stride)
      in
      for e = 0 to d - 1 do
        let idx = base + (e * stride) in
        let r = re.(idx) and i' = im.(idx) in
        re.(idx) <- (r *. ft_c) -. (i' *. ft_s);
        im.(idx) <- (r *. ft_s) +. (i' *. ft_c)
      done
    done
  in
  sweep 1;
  sweep d;
  sweep (d * d);
  let s = ref 0.0 in
  for i = 0 to total - 1 do
    s := !s +. re.(i)
  done;
  int_of_float (!s /. 1000.0) land checksum_mask

(* ========================= IS ========================= *)

let is_key i = i * 2654435761 land (is_buckets - 1)

let build_is ~n b =
  let keys = Builder.call b "malloc" [ Ir.Const (n * 4) ] in
  let sorted = Builder.call b "malloc" [ Ir.Const (n * 4) ] in
  let hist = Builder.call b "calloc" [ Ir.Const is_buckets; Ir.Const 8 ] in
  let off = Builder.call b "calloc" [ Ir.Const (is_buckets + 1); Ir.Const 8 ] in
  Builder.for_loop b ~hint:"is.init" ~init:(Ir.Const 0) ~bound:(Ir.Const n)
    (fun b i ->
      let k =
        Builder.binop b Ir.And
          (Builder.mul b i (Ir.Const 2654435761))
          (Ir.Const (is_buckets - 1))
      in
      Builder.store b ~size:4 k ~ptr:(Builder.gep b keys ~index:i ~scale:4 ()));
  ignore (Builder.call b "!bench_begin" []);
  Builder.for_loop b ~hint:"is.count" ~init:(Ir.Const 0) ~bound:(Ir.Const n)
    (fun b i ->
      let k = Builder.load b ~size:4 (Builder.gep b keys ~index:i ~scale:4 ()) in
      let hptr = Builder.gep b hist ~index:k ~scale:8 () in
      let c = Builder.load b hptr in
      Builder.store b (Builder.add b c (Ir.Const 1)) ~ptr:hptr);
  let offaccs =
    Builder.for_loop_acc b ~hint:"is.off" ~init:(Ir.Const 0)
      ~bound:(Ir.Const is_buckets) ~accs:[ Ir.Const 0 ]
      (fun b ~iv:k ~accs ->
        let run = match accs with [ s ] -> s | _ -> assert false in
        Builder.store b run ~ptr:(Builder.gep b off ~index:k ~scale:8 ());
        let c = Builder.load b (Builder.gep b hist ~index:k ~scale:8 ()) in
        [ Builder.add b run c ])
  in
  ignore offaccs;
  Builder.for_loop b ~hint:"is.scatter" ~init:(Ir.Const 0) ~bound:(Ir.Const n)
    (fun b i ->
      let k = Builder.load b ~size:4 (Builder.gep b keys ~index:i ~scale:4 ()) in
      let optr = Builder.gep b off ~index:k ~scale:8 () in
      let slot = Builder.load b optr in
      Builder.store b ~size:4 k
        ~ptr:(Builder.gep b sorted ~index:slot ~scale:4 ());
      Builder.store b (Builder.add b slot (Ir.Const 1)) ~ptr:optr);
  let accs =
    Builder.for_loop_acc b ~hint:"is.ck" ~init:(Ir.Const 0) ~bound:(Ir.Const n)
      ~step:97 ~accs:[ Ir.Const 0 ]
      (fun b ~iv:i ~accs ->
        let s = match accs with [ s ] -> s | _ -> assert false in
        let v = Builder.load b ~size:4 (Builder.gep b sorted ~index:i ~scale:4 ()) in
        [ Builder.binop b Ir.And
            (Builder.add b (Builder.mul b s (Ir.Const 33)) v)
            (Ir.Const checksum_mask) ])
  in
  match accs with [ s ] -> s | _ -> assert false

let checksum_is ~n =
  let keys = Array.init n is_key in
  let hist = Array.make is_buckets 0 in
  Array.iter (fun k -> hist.(k) <- hist.(k) + 1) keys;
  let off = Array.make (is_buckets + 1) 0 in
  let run = ref 0 in
  for k = 0 to is_buckets - 1 do
    off.(k) <- !run;
    run := !run + hist.(k)
  done;
  let sorted = Array.make n 0 in
  Array.iter
    (fun k ->
      sorted.(off.(k)) <- k;
      off.(k) <- off.(k) + 1)
    keys;
  let s = ref 0 in
  let i = ref 0 in
  while !i < n do
    s := ((!s * 33) + sorted.(!i)) land checksum_mask;
    i := !i + 97
  done;
  !s

(* ========================= MG ========================= *)

let build_mg ~d b =
  let total = d * d * d in
  let dc = d / 2 in
  let ctotal = dc * dc * dc in
  let u = Builder.call b "malloc" [ Ir.Const (total * 8) ] in
  let r = Builder.call b "malloc" [ Ir.Const (total * 8) ] in
  let uc = Builder.call b "malloc" [ Ir.Const (ctotal * 8) ] in
  Builder.for_loop b ~hint:"mg.init" ~init:(Ir.Const 0) ~bound:(Ir.Const total)
    (fun b i ->
      Builder.store b ~is_float:true
        (Builder.si_to_fp b (Builder.binop b Ir.Srem i (Ir.Const 11)))
        ~ptr:(Builder.gep b r ~index:i ~scale:8 ());
      Builder.store b ~is_float:true (Ir.Constf 0.0)
        ~ptr:(Builder.gep b u ~index:i ~scale:8 ()));
  ignore (Builder.call b "!bench_begin" []);
  (* Smoothing sweep over interior points: 7-point stencil on r into u. *)
  let smooth () =
    Builder.for_loop b ~hint:"mg.z" ~init:(Ir.Const 1) ~bound:(Ir.Const (d - 1))
      (fun b z ->
        Builder.for_loop b ~hint:"mg.y" ~init:(Ir.Const 1)
          ~bound:(Ir.Const (d - 1)) (fun b y ->
            let plane = Builder.mul b z (Ir.Const (d * d)) in
            let row = Builder.mul b y (Ir.Const d) in
            let base = Builder.add b plane row in
            Builder.for_loop b ~hint:"mg.x" ~init:(Ir.Const 1)
              ~bound:(Ir.Const (d - 1)) (fun b x ->
                let idx = Builder.add b base x in
                let at off =
                  Builder.load b ~is_float:true
                    (Builder.gep b r ~index:idx ~scale:8 ~offset:(off * 8) ())
                in
                let c = at 0 in
                let sum1 = Builder.fbinop b Ir.Fadd (at 1) (at (-1)) in
                let sum2 = Builder.fbinop b Ir.Fadd (at d) (at (-d)) in
                let sum3 =
                  Builder.fbinop b Ir.Fadd (at (d * d)) (at (-(d * d)))
                in
                let nb =
                  Builder.fbinop b Ir.Fadd sum1 (Builder.fbinop b Ir.Fadd sum2 sum3)
                in
                let v =
                  Builder.fbinop b Ir.Fadd
                    (Builder.fbinop b Ir.Fmul c (Ir.Constf 0.5))
                    (Builder.fbinop b Ir.Fmul nb (Ir.Constf 0.08333333))
                in
                Builder.store b ~is_float:true v
                  ~ptr:(Builder.gep b u ~index:idx ~scale:8 ()))))
  in
  smooth ();
  (* Restriction: coarse = average of 2x2x2 fine cells (strided gathers). *)
  Builder.for_loop b ~hint:"mg.rz" ~init:(Ir.Const 0) ~bound:(Ir.Const dc)
    (fun b z ->
      Builder.for_loop b ~hint:"mg.ry" ~init:(Ir.Const 0) ~bound:(Ir.Const dc)
        (fun b y ->
          Builder.for_loop b ~hint:"mg.rx" ~init:(Ir.Const 0)
            ~bound:(Ir.Const dc) (fun b x ->
              let fz = Builder.mul b z (Ir.Const 2) in
              let fy = Builder.mul b y (Ir.Const 2) in
              let fx = Builder.mul b x (Ir.Const 2) in
              let fidx =
                Builder.add b
                  (Builder.add b
                     (Builder.mul b fz (Ir.Const (d * d)))
                     (Builder.mul b fy (Ir.Const d)))
                  fx
              in
              let at off =
                Builder.load b ~is_float:true
                  (Builder.gep b u ~index:fidx ~scale:8 ~offset:(off * 8) ())
              in
              let s =
                Builder.fbinop b Ir.Fadd
                  (Builder.fbinop b Ir.Fadd (at 0) (at 1))
                  (Builder.fbinop b Ir.Fadd (at d) (at (d * d)))
              in
              let cidx =
                Builder.add b
                  (Builder.add b
                     (Builder.mul b z (Ir.Const (dc * dc)))
                     (Builder.mul b y (Ir.Const dc)))
                  x
              in
              Builder.store b ~is_float:true
                (Builder.fbinop b Ir.Fmul s (Ir.Constf 0.25))
                ~ptr:(Builder.gep b uc ~index:cidx ~scale:8 ()))));
  (* Prolongation-ish correction: add coarse back into fine corners. *)
  Builder.for_loop b ~hint:"mg.pz" ~init:(Ir.Const 0) ~bound:(Ir.Const dc)
    (fun b z ->
      Builder.for_loop b ~hint:"mg.py" ~init:(Ir.Const 0) ~bound:(Ir.Const dc)
        (fun b y ->
          Builder.for_loop b ~hint:"mg.px" ~init:(Ir.Const 0)
            ~bound:(Ir.Const dc) (fun b x ->
              let cidx =
                Builder.add b
                  (Builder.add b
                     (Builder.mul b z (Ir.Const (dc * dc)))
                     (Builder.mul b y (Ir.Const dc)))
                  x
              in
              let cv =
                Builder.load b ~is_float:true
                  (Builder.gep b uc ~index:cidx ~scale:8 ())
              in
              let fidx =
                Builder.add b
                  (Builder.add b
                     (Builder.mul b (Builder.mul b z (Ir.Const 2))
                        (Ir.Const (d * d)))
                     (Builder.mul b (Builder.mul b y (Ir.Const 2)) (Ir.Const d)))
                  (Builder.mul b x (Ir.Const 2))
              in
              let fptr = Builder.gep b u ~index:fidx ~scale:8 () in
              let fv = Builder.load b ~is_float:true fptr in
              Builder.store b ~is_float:true
                (Builder.fbinop b Ir.Fadd fv
                   (Builder.fbinop b Ir.Fmul cv (Ir.Constf 0.5)))
                ~ptr:fptr)));
  smooth ();
  let total_v = total in
  let accs =
    Builder.for_loop_acc b ~hint:"mg.ck" ~init:(Ir.Const 0)
      ~bound:(Ir.Const total_v) ~step:61 ~accs:[ Ir.Constf 0.0 ]
      (fun b ~iv:i ~accs ->
        let s = match accs with [ s ] -> s | _ -> assert false in
        let v = Builder.load b ~is_float:true (Builder.gep b u ~index:i ~scale:8 ()) in
        [ Builder.fbinop b Ir.Fadd s v ])
  in
  let s = match accs with [ s ] -> s | _ -> assert false in
  Builder.binop b Ir.And
    (Builder.fp_to_si b (Builder.fbinop b Ir.Fmul s (Ir.Constf 4.0)))
    (Ir.Const checksum_mask)

let checksum_mg ~d =
  let total = d * d * d in
  let dc = d / 2 in
  let u = Array.make total 0.0 in
  let r = Array.init total (fun i -> float_of_int (i mod 11)) in
  let uc = Array.make (dc * dc * dc) 0.0 in
  let smooth () =
    for z = 1 to d - 2 do
      for y = 1 to d - 2 do
        for x = 1 to d - 2 do
          let idx = (z * d * d) + (y * d) + x in
          let c = r.(idx) in
          let sum1 = r.(idx + 1) +. r.(idx - 1) in
          let sum2 = r.(idx + d) +. r.(idx - d) in
          let sum3 = r.(idx + (d * d)) +. r.(idx - (d * d)) in
          let nb = sum1 +. (sum2 +. sum3) in
          u.(idx) <- (c *. 0.5) +. (nb *. 0.08333333)
        done
      done
    done
  in
  smooth ();
  for z = 0 to dc - 1 do
    for y = 0 to dc - 1 do
      for x = 0 to dc - 1 do
        let fidx = (2 * z * d * d) + (2 * y * d) + (2 * x) in
        let s = u.(fidx) +. u.(fidx + 1) +. (u.(fidx + d) +. u.(fidx + (d * d))) in
        uc.((z * dc * dc) + (y * dc) + x) <- s *. 0.25
      done
    done
  done;
  for z = 0 to dc - 1 do
    for y = 0 to dc - 1 do
      for x = 0 to dc - 1 do
        let cv = uc.((z * dc * dc) + (y * dc) + x) in
        let fidx = (2 * z * d * d) + (2 * y * d) + (2 * x) in
        u.(fidx) <- u.(fidx) +. (cv *. 0.5)
      done
    done
  done;
  smooth ();
  let s = ref 0.0 in
  let i = ref 0 in
  while !i < total do
    s := !s +. u.(!i);
    i := !i + 61
  done;
  int_of_float (!s *. 4.0) land checksum_mask

(* ========================= SP ========================= *)

(* Line sweeps with a loop-carried dependence (u[i] depends on u[i-1])
   along each dimension, plus the redundant loads of naive code. *)
let build_sp ~d b =
  let total = d * d * d in
  let u = Builder.call b "malloc" [ Ir.Const (total * 8) ] in
  let rhs = Builder.call b "malloc" [ Ir.Const (total * 8) ] in
  Builder.for_loop b ~hint:"sp.init" ~init:(Ir.Const 0) ~bound:(Ir.Const total)
    (fun b i ->
      let v = Builder.si_to_fp b (Builder.binop b Ir.Srem i (Ir.Const 13)) in
      Builder.store b ~is_float:true v
        ~ptr:(Builder.gep b u ~index:i ~scale:8 ());
      Builder.store b ~is_float:true
        (Builder.si_to_fp b (Builder.binop b Ir.Srem i (Ir.Const 7)))
        ~ptr:(Builder.gep b rhs ~index:i ~scale:8 ()));
  ignore (Builder.call b "!bench_begin" []);
  let sweep stride hint =
    Builder.for_loop b ~hint:(hint ^ ".line") ~init:(Ir.Const 0)
      ~bound:(Ir.Const (total / d)) (fun b line ->
        let base =
          if stride = 1 then Builder.mul b line (Ir.Const d)
          else begin
            let per = stride in
            let blk = Builder.binop b Ir.Sdiv line (Ir.Const per) in
            let rem = Builder.binop b Ir.Srem line (Ir.Const per) in
            Builder.add b (Builder.mul b blk (Ir.Const (per * d))) rem
          end
        in
        Builder.for_loop b ~hint:(hint ^ ".i") ~init:(Ir.Const 1)
          ~bound:(Ir.Const d) (fun b e ->
            let idx = Builder.add b base (Builder.mul b e (Ir.Const stride)) in
            let uptr = Builder.gep b u ~index:idx ~scale:8 () in
            let pptr = Builder.gep b u ~index:idx ~scale:8 ~offset:(-8 * stride) () in
            let rptr = Builder.gep b rhs ~index:idx ~scale:8 () in
            (* redundant loads: naive code reloads u[i-1] and rhs twice *)
            let prev1 = Builder.load b ~is_float:true pptr in
            let prev2 = Builder.load b ~is_float:true pptr in
            let rv1 = Builder.load b ~is_float:true rptr in
            let rv2 = Builder.load b ~is_float:true rptr in
            let cur = Builder.load b ~is_float:true uptr in
            let t1 = Builder.fbinop b Ir.Fmul prev1 (Ir.Constf 0.3) in
            let t2 = Builder.fbinop b Ir.Fmul prev2 (Ir.Constf 0.1) in
            let t3 = Builder.fbinop b Ir.Fmul rv1 (Ir.Constf 0.05) in
            let t4 = Builder.fbinop b Ir.Fmul rv2 (Ir.Constf 0.05) in
            let mix =
              Builder.fbinop b Ir.Fadd
                (Builder.fbinop b Ir.Fadd t1 t2)
                (Builder.fbinop b Ir.Fadd t3 t4)
            in
            let v =
              Builder.fbinop b Ir.Fadd
                (Builder.fbinop b Ir.Fmul cur (Ir.Constf 0.5))
                mix
            in
            Builder.store b ~is_float:true v ~ptr:uptr))
  in
  sweep 1 "sp.x";
  sweep d "sp.y";
  sweep (d * d) "sp.z";
  let accs =
    Builder.for_loop_acc b ~hint:"sp.ck" ~init:(Ir.Const 0)
      ~bound:(Ir.Const total) ~step:53 ~accs:[ Ir.Constf 0.0 ]
      (fun b ~iv:i ~accs ->
        let s = match accs with [ s ] -> s | _ -> assert false in
        let v = Builder.load b ~is_float:true (Builder.gep b u ~index:i ~scale:8 ()) in
        [ Builder.fbinop b Ir.Fadd s v ])
  in
  let s = match accs with [ s ] -> s | _ -> assert false in
  Builder.binop b Ir.And
    (Builder.fp_to_si b (Builder.fbinop b Ir.Fmul s (Ir.Constf 4.0)))
    (Ir.Const checksum_mask)

let checksum_sp ~d =
  let total = d * d * d in
  let u = Array.init total (fun i -> float_of_int (i mod 13)) in
  let rhs = Array.init total (fun i -> float_of_int (i mod 7)) in
  let sweep stride =
    for line = 0 to (total / d) - 1 do
      let base =
        if stride = 1 then line * d
        else (line / stride * (stride * d)) + (line mod stride)
      in
      for e = 1 to d - 1 do
        let idx = base + (e * stride) in
        let prev = u.(idx - stride) in
        let rv = rhs.(idx) in
        let t1 = prev *. 0.3 in
        let t2 = prev *. 0.1 in
        let t3 = rv *. 0.05 in
        let t4 = rv *. 0.05 in
        let mix = t1 +. t2 +. (t3 +. t4) in
        u.(idx) <- (u.(idx) *. 0.5) +. mix
      done
    done
  in
  sweep 1;
  sweep d;
  sweep (d * d);
  let s = ref 0.0 in
  let i = ref 0 in
  while !i < total do
    s := !s +. u.(!i);
    i := !i + 53
  done;
  int_of_float (!s *. 4.0) land checksum_mask

(* -- dispatch -------------------------------------------------------------- *)

let build_sized kernel size () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let ck =
    match kernel with
    | CG -> build_cg ~n:size b
    | FT -> build_ft ~d:size b
    | IS -> build_is ~n:size b
    | MG -> build_mg ~d:size b
    | SP -> build_sp ~d:size b
  in
  Builder.ret b (Some ck);
  Verifier.check_module m;
  m

let checksum_sized kernel size =
  match kernel with
  | CG -> checksum_cg ~n:size
  | FT -> checksum_ft ~d:size
  | IS -> checksum_is ~n:size
  | MG -> checksum_mg ~d:size
  | SP -> checksum_sp ~d:size

let build p = build_sized p.kernel (size p)
let checksum p = checksum_sized p.kernel (size p)

let sized kernel size =
  {
    Workload.name = "nas-" ^ kernel_name kernel;
    build = build_sized kernel size;
    blobs = lazy [];
    working_set = working_set kernel size;
    oracle = lazy (checksum_sized kernel size);
    op_classes = [];
  }

let workload p = sized p.kernel (size p)

(* Every dimension of class 1 halved: an eighth of its working set. *)
let sub_class kernel =
  sized kernel
    (match kernel with
    | CG | IS -> class1 kernel / 8
    | FT | MG | SP -> class1 kernel / 2)
