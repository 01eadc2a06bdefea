(* Differential tests between the tree-walking interpreter (the oracle)
   and the compiled closure engine: every workload, faults on and off,
   guard elision on and off, must produce identical results, identical
   clock counters, identical span-attribution category splits and
   identical per-site hotspot rows. A negative test proves the diff
   actually bites: a deliberately miscompiled closure
   (Compile.test_miscompile) must be caught. *)

open Workloads

let medium_faults ~seed =
  match Faults.parse "medium" with
  | Ok cfg -> Faults.create ~seed cfg
  | Error e -> Alcotest.failf "faults spec: %s" e

(* Everything observable from one run: result triple, every clock
   counter, the per-class span category decomposition, and each guard
   site's hotspot row (fast, slow, locality, custody, paged, writes,
   bytes in and out, guard cycles). *)
type observation = {
  ret : int;
  cycles : int;
  instrs : int;
  counters : (string * int) list;
  spans : (int * int list) list;
  sites : (string * int list) list;
}

let observe_tfm ?blobs ?(op_classes = []) ?profile ~engine ~faults ~elide
    build ~local_budget =
  let sink = ref Telemetry.Sink.nop in
  let telemetry clock =
    let s =
      Telemetry.Sink.recording ~trace:false ~series_interval:0 ~spans:true
        ~op_classes clock
    in
    sink := s;
    s
  in
  let opts =
    {
      (Driver.tfm_defaults ~local_budget) with
      Driver.faults;
      elide_guards = elide;
    }
  in
  let outcome, _report =
    Driver.run_trackfm ~engine ?blobs ~telemetry ?profile build opts
  in
  let spans =
    match Telemetry.Sink.spans !sink with
    | None -> []
    | Some sp ->
        List.map
          (fun (cls, st) ->
            (cls, Array.to_list st.Telemetry.Span.cat_totals))
          (Telemetry.Span.classes sp)
  in
  let sites =
    match Telemetry.Sink.recorder !sink with
    | None -> []
    | Some r ->
        List.sort compare
          (List.map
             (fun (key, (st : Telemetry.Site.stat)) ->
               ( Telemetry.Site.key_to_string key,
                 [
                   st.fast; st.slow; st.locality; st.custody; st.paged;
                   st.writes; st.bytes_in; st.bytes_out; st.guard_cycles;
                 ] ))
             (Telemetry.Site.rows r.Telemetry.Sink.sites))
  in
  {
    ret = outcome.Driver.ret;
    cycles = outcome.Driver.cycles;
    instrs = outcome.Driver.instrs;
    counters =
      List.sort compare (Clock.counters outcome.Driver.clock);
    spans;
    sites;
  }

let check_equal label (a : observation) (b : observation) =
  Alcotest.(check int) (label ^ ": ret") a.ret b.ret;
  Alcotest.(check int) (label ^ ": cycles") a.cycles b.cycles;
  Alcotest.(check int) (label ^ ": instrs") a.instrs b.instrs;
  Alcotest.(check (list (pair string int)))
    (label ^ ": counters") a.counters b.counters;
  Alcotest.(check (list (pair int (list int))))
    (label ^ ": span splits") a.spans b.spans;
  Alcotest.(check (list (pair string (list int))))
    (label ^ ": site rows") a.sites b.sites

(* The workload matrix at miniature scale (NAS IS at its sub-class size;
   the full size is the nas-is cells of @ci/engines), each with the
   divisor of its working set that gives its local budget. *)
let matrix () =
  [
    (Stream.workload ~n:20_000 Stream.Sum, 4);
    (Kmeans.workload (Kmeans.default_params ~n:1_000), 2);
    (Hashmap.workload (Hashmap.default_params ~keys:2_000 ~lookups:4_000), 4);
    ( Memcached.workload
        (Memcached.default_params ~keys:1_000 ~gets:1_500 ~skew:0.9),
      2 );
    (Analytics.workload (Analytics.default_params ~rows:2_000), 3);
    (Nas.sub_class Nas.IS, 2);
  ]

(* Both engines compile with the one profile the compiled engine counts,
   as [Driver.run_trackfm] would; [test_profile_parity] checks the
   interpreter counts the same. *)
let test_trackfm_matrix () =
  List.iter
    (fun ((w : Workload.t), divisor) ->
      let blobs = Lazy.force w.blobs in
      let profile = Driver.profile_of ~blobs w.build in
      List.iter
        (fun (faults, fault_tag) ->
          List.iter
            (fun elide ->
              let obs engine =
                (* a Faults.t carries PRNG state: each run needs a fresh
                   one or the second engine sees a shifted schedule *)
                observe_tfm ~blobs ~op_classes:w.op_classes ~profile ~engine
                  ~faults:(faults ()) ~elide w.build
                  ~local_budget:(w.working_set / divisor)
              in
              let label =
                Printf.sprintf "%s/%s/elide=%b" w.name fault_tag elide
              in
              let interp = obs Engine.Interp in
              Alcotest.(check bool) (label ^ ": sites recorded") true
                (interp.sites <> []);
              check_equal label interp (obs Engine.Compiled))
            [ true; false ])
        [
          ((fun () -> Faults.disabled), "nofault");
          ((fun () -> medium_faults ~seed:1), "medium");
        ])
    (matrix ())

(* Stores through a pointer register that no gep computes right before
   them, of an int argument, a float constant and a float argument: the
   guard pass puts [tfm_guard_write(%p, 8)] right before each, and the
   compiled engine fuses that call into a store it compiles through the
   generic address path. Each object gets [i + 1] at offset 0 and [i] as
   a float at offset 8, so [main] returns [n * n]. *)
let plain_register_stores ~n () =
  let m = Ir.create_module () in
  (* [name(v, cell)] stores [value] through the pointer [cell] holds. *)
  let store_through name ~is_float value =
    let b = Builder.create m ~name ~nparams:2 in
    let p = Builder.load b (Builder.arg 1) in
    Builder.store b ~is_float value ~ptr:p;
    Builder.ret b None
  in
  store_through "put" ~is_float:false (Builder.arg 0);
  store_through "putf" ~is_float:true (Ir.Constf 1.5);
  store_through "putfa" ~is_float:true (Builder.arg 0);
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let cells = Builder.call b "malloc" [ Ir.Const (8 * n) ] in
  let fcells = Builder.call b "malloc" [ Ir.Const (8 * n) ] in
  let cell b cells i = Builder.gep b cells ~index:i ~scale:8 () in
  Builder.for_loop b ~init:(Ir.Const 0) ~bound:(Ir.Const n) (fun b i ->
      let o = Builder.call b "malloc" [ Ir.Const 4096 ] in
      Builder.store b o ~ptr:(cell b cells i);
      Builder.store b
        (Builder.gep b o ~index:(Ir.Const 1) ~scale:8 ())
        ~ptr:(cell b fcells i));
  Builder.for_loop b ~init:(Ir.Const 0) ~bound:(Ir.Const n) (fun b i ->
      let call f args = ignore (Builder.call b f args) in
      call "put" [ Builder.add b i (Ir.Const 1); cell b cells i ];
      call "putf" [ Ir.Const 0; cell b fcells i ];
      call "putfa" [ Builder.si_to_fp b i; cell b fcells i ]);
  let sum =
    Builder.for_loop_acc b ~init:(Ir.Const 0) ~bound:(Ir.Const n)
      ~accs:[ Ir.Const 0 ] (fun b ~iv ~accs ->
        let o = Builder.load b (cell b cells iv) in
        let f =
          Builder.load b ~is_float:true
            (Builder.gep b o ~index:(Ir.Const 1) ~scale:8 ())
        in
        [
          Builder.add b (List.hd accs)
            (Builder.add b (Builder.load b o) (Builder.fp_to_si b f));
        ])
  in
  Builder.ret b (Some (List.hd sum));
  m

let test_plain_register_stores () =
  let n = 16 in
  let build = plain_register_stores ~n in
  let m = build () in
  ignore (Trackfm.Pipeline.run Trackfm.Pipeline.default_config m);
  List.iter
    (fun name ->
      let rec guarded = function
        | {
            Ir.kind =
              Ir.Call
                { callee = "tfm_guard_write"; args = [ Ir.Reg p; Ir.Const 8 ] };
            _;
          }
          :: { Ir.kind = Ir.Store { ptr = Ir.Reg p'; _ }; _ }
          :: _
          when p = p' ->
            true
        | _ :: rest -> guarded rest
        | [] -> false
      in
      Alcotest.(check bool)
        (name ^ ": guard right before a store through a register")
        true
        (guarded (Ir.entry (Ir.find_func m name)).Ir.instrs))
    [ "put"; "putf"; "putfa" ];
  let local_budget = 4 * 4096 in
  let profile = Driver.profile_of build in
  List.iter
    (fun elide ->
      let label = Printf.sprintf "plain-register stores/elide=%b" elide in
      let obs engine =
        observe_tfm ~profile ~engine ~faults:Faults.disabled ~elide build
          ~local_budget
      in
      let interp = obs Engine.Interp in
      Alcotest.(check int) (label ^ ": ret") (n * n) interp.ret;
      check_equal label interp (obs Engine.Compiled))
    [ true; false ]

(* One verified module that runs, at least once each, the operand
   shapes the compiled engine reads through its generic closures rather
   than a closure of their own: arithmetic and comparisons on argument,
   constant and mixed operands, geps that feed no access, loads and
   stores through those addresses with and without a runtime call fused
   into them, and direct calls with 0-3 arguments. [shapes p 7] returns
   3002. *)
let generic_shapes () =
  let m = Ir.create_module () in
  let fn name nparams body =
    let b = Builder.create m ~name ~nparams in
    Builder.ret b (Some (body b))
  in
  let a = Builder.arg in
  fn "k0" 0 (fun _ -> Ir.Const 5);
  fn "i2" 2 (fun b -> Builder.sub b (a 0) (a 1));
  fn "i3" 3 (fun b ->
      let hi = Builder.mul b (a 0) (Ir.Const 100) in
      let mid = Builder.mul b (a 1) (Ir.Const 10) in
      Builder.add b (Builder.add b hi mid) (a 2));
  fn "f1" 1 (fun b ->
      Builder.fp_to_si b (Builder.fbinop b Ir.Fmul (a 0) (Ir.Constf 2.0)));
  fn "f3" 3 (fun b ->
      Builder.add b (Builder.add b (a 0) (Builder.fp_to_si b (a 1))) (a 2));
  fn "shapes" 2 (fun b ->
      let p = a 0 and n = a 1 in
      let op o x y = Builder.binop b o x y in
      let cmp c x y = Builder.icmp b c x y in
      let x = Builder.add b n (Ir.Const 5) in
      let y = Builder.add b n (Ir.Const 2) in
      let s = Builder.sub b y (Ir.Const 7) in
      let negx = Builder.sub b (Ir.Const 0) x in
      let ints =
        [
          Builder.add b x n; Builder.sub b x (Ir.Const 4);
          Builder.sub b (Ir.Const 100) x; Builder.mul b (Ir.Const 3) y;
          Builder.mul b x y; op Ir.Or x y; op Ir.Xor x (Ir.Const 6);
          op Ir.Shl x s; op Ir.Lshr x s; op Ir.Ashr negx (Ir.Const 1);
          op Ir.Ashr negx s; cmp Ir.Eq x y; cmp Ir.Eq x (Ir.Const 12);
          cmp Ir.Lt y n; cmp Ir.Le y x; cmp Ir.Le x (Ir.Const 12);
          cmp Ir.Gt x y; cmp Ir.Ge y x; cmp Ir.Ge x (Ir.Const 13);
        ]
      in
      let fx = Builder.si_to_fp b x in
      let fa = Builder.fbinop b Ir.Fadd fx (Ir.Constf 0.5) in
      let fs = Builder.fbinop b Ir.Fsub fx (Ir.Constf 2.25) in
      let flt = Builder.fcmp b Ir.Lt fx (Ir.Constf 20.0) in
      (* A runtime call between a gep and its access fuses into the
         access; [!cpu_work] charges its argument in cycles. *)
      let work () = ignore (Builder.call b "!cpu_work" [ Ir.Const 1 ]) in
      let q = Builder.add b p (Ir.Const 0) in
      let word ?(called = false) base index =
        let g = Builder.gep b base ~index ~scale:8 () in
        if called then work ();
        g
      in
      let t = Builder.sub b y (Ir.Const 4) in
      let u = Builder.add b t (Ir.Const 1) in
      let v = Builder.add b t (Ir.Const 2) in
      Builder.store b ~is_float:true fx ~ptr:(word q (Ir.Const 1));
      Builder.store b ~is_float:true fa ~ptr:(word ~called:true q (Ir.Const 2));
      let lf1 = Builder.load b ~is_float:true (word q (Ir.Const 1)) in
      let lf2 =
        Builder.load b ~is_float:true (word ~called:true q (Ir.Const 2))
      in
      Builder.store b y ~ptr:(word q (Ir.Const 3));
      Builder.store b x ~ptr:(word ~called:true q (Ir.Const 4));
      Builder.store b (Ir.Const 5) ~ptr:(word q t);
      Builder.store b (Ir.Const 6) ~ptr:(word ~called:true q u);
      let li1 = Builder.load b (word p t) in
      let li2 = Builder.load b (word ~called:true p u) in
      (* Geps that feed no access right after them. *)
      let g1 = Builder.gep b p ~index:v ~scale:8 () in
      let g2 = Builder.gep b p ~index:(Ir.Const 8) ~scale:8 () in
      let g3 = Builder.gep b (Ir.Const 64) ~index:s ~scale:4 () in
      let g4 = Builder.gep b (Ir.Const 1000) ~index:(Ir.Const 2) ~scale:8 () in
      Builder.store b (Ir.Const 77) ~ptr:g2;
      work ();
      Builder.store b (Ir.Const 78) ~ptr:g1;
      let loads =
        [
          li1; li2; Builder.load b g1; Builder.load b g2;
          Builder.load b (word q (Ir.Const 3));
          Builder.load b (word q (Ir.Const 4));
        ]
      in
      let calls =
        [
          Builder.call b "k0" []; Builder.call b "i2" [ x; y ];
          Builder.call b "i3" [ x; y; n ]; Builder.call b "f1" [ fx ];
          Builder.call b "f3" [ x; fx; y ];
        ]
      in
      let floats = List.map (Builder.fp_to_si b) [ fa; fs; lf1; lf2 ] in
      List.fold_left (Builder.add b) (Ir.Const 0)
        (ints @ [ flt; g3; g4 ] @ floats @ loads @ calls));
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let p = Builder.call b "malloc" [ Ir.Const 128 ] in
  Builder.ret b (Some (Builder.call b "shapes" [ p; Ir.Const 7 ]));
  m

let test_local_and_fastswap () =
  let w = Stream.workload ~n:20_000 Stream.Sum in
  let budget = w.working_set / 4 in
  let local build engine =
    let o = Driver.run_local ~engine build in
    (o.Driver.ret, o.Driver.cycles, o.Driver.instrs,
     List.sort compare (Clock.counters o.Driver.clock))
  in
  let fastswap build engine =
    let o = Driver.run_fastswap ~engine ~local_budget:budget build in
    (o.Driver.ret, o.Driver.cycles, o.Driver.instrs,
     List.sort compare (Clock.counters o.Driver.clock))
  in
  List.iter
    (fun (what, build) ->
      Alcotest.(check bool) (what ^ ": local engines agree") true
        (local build Engine.Interp = local build Engine.Compiled);
      Alcotest.(check bool) (what ^ ": fastswap engines agree") true
        (fastswap build Engine.Interp = fastswap build Engine.Compiled))
    [ (w.name, w.build); ("generic shapes", generic_shapes) ];
  let ret, _, _, _ = local w.build Engine.Compiled in
  Alcotest.(check int) "compiled checksum" (Lazy.force w.oracle) ret;
  let ret, _, _, _ = local generic_shapes Engine.Interp in
  Alcotest.(check int) "generic shapes ret" 3002 ret

(* The float path deserves its own direct check: kmeans is the only
   heavily-float workload, and its checksum is a bit-exact reference. *)
let test_float_checksum () =
  let w = Kmeans.workload (Kmeans.default_params ~n:800) in
  let o = Driver.run_local ~engine:Engine.Compiled w.build in
  Alcotest.(check int) "kmeans checksum" (Lazy.force w.oracle) o.Driver.ret

let test_miscompile_is_caught () =
  let w = Stream.workload ~n:5_000 Stream.Sum in
  let run engine = (Driver.run_local ~engine w.build).Driver.ret in
  let reference = run Engine.Interp in
  Fun.protect
    ~finally:(fun () -> Compile.test_miscompile := false)
    (fun () ->
      Compile.test_miscompile := true;
      let broken = run Engine.Compiled in
      Alcotest.(check bool) "diff catches the miscompiled closure" true
        (broken <> reference));
  (* and with the knob back off, equivalence is restored *)
  Alcotest.(check int) "restored" reference (run Engine.Compiled)

let test_recursion_and_traps () =
  (* Direct-call binding, recursion depth and trap parity on a tiny
     hand-built module: fib(18) recursive. *)
  let m =
    let m = Ir.create_module () in
    let b = Builder.create m ~name:"fib" ~nparams:1 in
    let n = Builder.arg 0 in
    let base = Builder.add_block b "base" in
    let recb = Builder.add_block b "rec" in
    let c = Builder.icmp b Ir.Lt n (Ir.Const 2) in
    Builder.cbr b c base recb;
    Builder.set_block b base;
    Builder.ret b (Some n);
    Builder.set_block b recb;
    let n1 = Builder.sub b n (Ir.Const 1) in
    let a = Builder.call b "fib" [ n1 ] in
    let n2 = Builder.sub b n (Ir.Const 2) in
    let bb = Builder.call b "fib" [ n2 ] in
    let s = Builder.add b a bb in
    Builder.ret b (Some s);
    let bm = Builder.create m ~name:"main" ~nparams:0 in
    let r = Builder.call bm "fib" [ Ir.Const 18 ] in
    Builder.ret bm (Some r);
    m
  in
  let clock () = Clock.create () in
  let run engine =
    Engine.run ~engine
      (Backend.local Cost_model.default (clock ()) (Memstore.create ()))
      m ~entry:"main"
  in
  let a = run Engine.Interp and b = run Engine.Compiled in
  Alcotest.(check int) "fib ret" a.Interp.ret b.Interp.ret;
  Alcotest.(check int) "fib cycles" a.Interp.cycles b.Interp.cycles;
  Alcotest.(check int) "fib instrs" a.Interp.instrs_executed
    b.Interp.instrs_executed;
  (* [sum_down n] reads [v] before its activation defines it (the
     verifier allows that, and both engines read 0), keeps [pre] live
     across its recursive call, and returns n + (n-1) + ... + 0. Called
     three times, it catches a reused frame that is not zero-filled or
     that a live activation still holds. *)
  let pre_m =
    let m = Ir.create_module () in
    let h = Builder.create m ~name:"sum_down" ~nparams:1 in
    let n = Builder.arg 0 in
    let recb = Builder.add_block h "rec" in
    let doneb = Builder.add_block h "done" in
    Builder.set_block h doneb;
    let res = Builder.phi h [] in
    let v = Builder.add h res (Ir.Const 1000) in
    Builder.ret h (Some res);
    Builder.set_block h "entry";
    let pre = Builder.add h v n in
    let c = Builder.icmp h Ir.Lt n (Ir.Const 1) in
    Builder.cbr h c doneb recb;
    Builder.set_block h recb;
    let r = Builder.call h "sum_down" [ Builder.sub h n (Ir.Const 1) ] in
    let sum = Builder.add h pre r in
    Builder.br h doneb;
    Builder.patch_phi h res "entry" pre;
    Builder.patch_phi h res recb sum;
    let bm = Builder.create m ~name:"main" ~nparams:0 in
    let calls =
      List.map
        (fun k -> Builder.call bm "sum_down" [ Ir.Const k ])
        [ 10; 10; 12 ]
    in
    let total =
      List.fold_left (fun acc x -> Builder.add bm acc x) (Ir.Const 0) calls
    in
    Builder.ret bm (Some total);
    Verifier.check_module m;
    m
  in
  let run_pre engine =
    Engine.run ~engine
      (Backend.local Cost_model.default (clock ()) (Memstore.create ()))
      pre_m ~entry:"main"
  in
  let a = run_pre Engine.Interp and b = run_pre Engine.Compiled in
  Alcotest.(check int) "read-before-define ret" (55 + 55 + 78) a.Interp.ret;
  Alcotest.(check int) "read-before-define parity" a.Interp.ret b.Interp.ret;
  Alcotest.(check int) "read-before-define cycles" a.Interp.cycles
    b.Interp.cycles;
  (* trap parity: division by zero surfaces identically *)
  let div_m =
    let m = Ir.create_module () in
    let b = Builder.create m ~name:"main" ~nparams:0 in
    let z = Builder.add b (Ir.Const 0) (Ir.Const 0) in
    let d = Builder.binop b Ir.Sdiv (Ir.Const 1) z in
    Builder.ret b (Some d);
    m
  in
  let trap_of engine =
    try
      ignore
        (Engine.run ~engine
           (Backend.local Cost_model.default (clock ()) (Memstore.create ()))
           div_m ~entry:"main");
      "no trap"
    with Interp.Trap msg -> msg
  in
  Alcotest.(check string) "trap parity"
    (trap_of Engine.Interp) (trap_of Engine.Compiled);
  (* A register divided by a constant: a nonzero constant has its own
     closure, truncating toward zero like the interpreter for either
     sign; a zero constant traps with the interpreter's message. *)
  let const_div_m divisor =
    let m = Ir.create_module () in
    let b = Builder.create m ~name:"main" ~nparams:0 in
    let x = Builder.sub b (Ir.Const 0) (Ir.Const 47) in
    let y = Builder.add b (Ir.Const 47) (Ir.Const 0) in
    let digits =
      List.map
        (fun (op, v) -> Builder.binop b op v (Ir.Const divisor))
        [ (Ir.Sdiv, x); (Ir.Srem, x); (Ir.Sdiv, y); (Ir.Srem, y) ]
    in
    let acc =
      List.fold_left
        (fun acc d -> Builder.add b (Builder.mul b acc (Ir.Const 100)) d)
        (Ir.Const 0) digits
    in
    Builder.ret b (Some acc);
    m
  in
  let outcome m engine =
    match
      Engine.run ~engine
        (Backend.local Cost_model.default (clock ()) (Memstore.create ()))
        m ~entry:"main"
    with
    | r -> Printf.sprintf "ret %d, %d cycles" r.Interp.ret r.Interp.cycles
    | exception Interp.Trap msg -> "trap: " ^ msg
  in
  List.iter
    (fun divisor ->
      let m = const_div_m divisor in
      Alcotest.(check string)
        (Printf.sprintf "constant divisor %d" divisor)
        (outcome m Engine.Interp) (outcome m Engine.Compiled))
    [ 5; -5; 1; 0 ];
  Alcotest.(check string) "constant 0 traps" "trap: division by zero"
    (outcome (const_div_m 0) Engine.Compiled);
  (* Both engines run only verified IR: on a module with a malformed phi,
     [Interp.run], [Compile.run] and [Engine.run] on either engine raise
     the verifier's [Ill_formed] before the first block runs, so the
     clock stays at 0. [phi_main arms] branches entry -> next, where
     [x = phi arms] is returned; block "other" is unreachable. *)
  let phi_main ?(in_entry = false) ?(after_add = false) arms =
    let m = Ir.create_module () in
    let b = Builder.create m ~name:"main" ~nparams:0 in
    if in_entry then Builder.ret b (Some (Builder.phi b arms))
    else begin
      let next = Builder.add_block b "next" in
      let other = Builder.add_block b "other" in
      Builder.br b next;
      Builder.set_block b other;
      Builder.br b next;
      Builder.set_block b next;
      let arms =
        if after_add then
          (* a phi after a non-phi instruction, reading it *)
          ("entry", Builder.add b (Ir.Const 40) (Ir.Const 2)) :: arms
        else arms
      in
      Builder.ret b (Some (Builder.phi b arms))
    end;
    m
  in
  let rejection run m =
    let clock = clock () in
    let backend = Backend.local Cost_model.default clock (Memstore.create ()) in
    let what =
      match run backend m with
      | r -> Printf.sprintf "ret %d" r.Interp.ret
      | exception Verifier.Ill_formed msg -> "ill-formed: " ^ msg
    in
    Printf.sprintf "%s, %d cycles" what (Clock.cycles clock)
  in
  let runs =
    [
      ("Interp.run", fun b m -> Interp.run b m ~entry:"main");
      ("Compile.run", fun b m -> Compile.run b m ~entry:"main");
      ( "Engine.run interp",
        fun b m -> Engine.run ~engine:Engine.Interp b m ~entry:"main" );
      ( "Engine.run compiled",
        fun b m -> Engine.run ~engine:Engine.Compiled b m ~entry:"main" );
    ]
  in
  List.iter
    (fun (what, m, want) ->
      List.iter
        (fun (path, run) ->
          Alcotest.(check string) (what ^ ", " ^ path)
            ("ill-formed: " ^ want ^ ", 0 cycles")
            (rejection run m))
        runs)
    [
      ( "two arms for one predecessor",
        phi_main [ ("entry", Ir.Const 1); ("entry", Ir.Const 2) ],
        "main/next1: phi %0 arms [entry;entry] do not match preds \
         [entry;other2]" );
      ( "three arms, two for one predecessor",
        phi_main
          [ ("entry", Ir.Const 3); ("other", Ir.Const 5); ("entry", Ir.Const 4) ],
        "main/next1: phi %0 arms [entry;entry;other] do not match preds \
         [entry;other2]" );
      ( "entry-block phi",
        phi_main ~in_entry:true [ ("<entry>", Ir.Const 7) ],
        "main: phi in entry block" );
      ( "no arm for the predecessor",
        phi_main [ ("other", Ir.Const 5) ],
        "main/next1: phi %0 arms [other] do not match preds [entry;other2]" );
      ( "phi after a non-phi instruction",
        phi_main ~after_add:true [ ("other", Ir.Const 5) ],
        "main/next1: phi %1 after non-phi instruction" );
      ( "function with no blocks",
        {
          Ir.funcs =
            [ { fname = "main"; nparams = 0; blocks = []; next_id = 0 } ];
          globals = [];
        },
        "main: function has no blocks" );
    ];
  (* A runtime call between a gep and the access it feeds, or right
     before an access, compiles into the access's closure. Around that
     fusion: an access through the call's own result, a store of the
     call's result, a callee without [!] that the backend does not
     handle and that names an IR function (which stores 99 through its
     pointer), and an unknown [!] hook, which traps with the same message
     and cycles. The local backend gets one more intrinsic, [id p] = p. *)
  let with_id (b : Backend.t) =
    {
      b with
      Backend.intrinsic =
        (fun name ->
          match name with
          | "id" -> fun a -> Some a.(0)
          | _ -> b.Backend.intrinsic name);
    }
  in
  let fused_main body =
    let m = Ir.create_module () in
    let h = Builder.create m ~name:"tfm_guard_read" ~nparams:2 in
    Builder.store h (Ir.Const 99) ~ptr:(Builder.arg 0);
    Builder.ret h (Some (Builder.arg 0));
    let b = Builder.create m ~name:"main" ~nparams:0 in
    let p = Builder.call b "malloc" [ Ir.Const 64 ] in
    Builder.ret b (Some (body b p));
    m
  in
  let fused_outcome engine m =
    let clock = clock () in
    let backend =
      with_id (Backend.local Cost_model.default clock (Memstore.create ()))
    in
    let what =
      match Engine.run ~engine backend m ~entry:"main" with
      | r -> Printf.sprintf "ret %d" r.Interp.ret
      | exception Interp.Trap msg -> "trap: " ^ msg
    in
    Printf.sprintf "%s, %d cycles" what (Clock.cycles clock)
  in
  List.iter
    (fun (what, m, want) ->
      let interp = fused_outcome Engine.Interp m in
      Alcotest.(check bool)
        (what ^ ": " ^ interp) true
        (String.starts_with ~prefix:(want ^ ",") interp);
      Alcotest.(check string) (what ^ ", compiled") interp
        (fused_outcome Engine.Compiled m))
    [
      ( "access through the call's result",
        fused_main (fun b p ->
            let g = Builder.gep b p ~index:(Ir.Const 1) ~scale:8 () in
            let c = Builder.call b "id" [ g; Ir.Const 8 ] in
            Builder.store b (Ir.Const 7) ~ptr:c;
            let c' = Builder.call b "id" [ g; Ir.Const 8 ] in
            Builder.load b c'),
        "ret 7" );
      ( "store of the call's result",
        fused_main (fun b p ->
            let g = Builder.gep b p ~index:(Ir.Const 2) ~scale:8 () in
            let c = Builder.call b "id" [ g; Ir.Const 8 ] in
            Builder.store b c ~ptr:g;
            Builder.sub b (Builder.load b g) p),
        "ret 16" );
      ( "unhandled callee that names an IR function",
        fused_main (fun b p ->
            let g = Builder.gep b p ~index:(Ir.Const 3) ~scale:8 () in
            let c = Builder.call b "tfm_guard_read" [ g; Ir.Const 8 ] in
            Builder.add b (Builder.load b g) (Builder.sub b c g)),
        "ret 99" );
      ( "unknown hook",
        fused_main (fun b p ->
            let g = Builder.gep b p ~index:(Ir.Const 4) ~scale:8 () in
            ignore (Builder.call b "!nope" [ g; Ir.Const 8 ]);
            Builder.load b g),
        "trap: unknown runtime hook !nope" );
    ]

(* The compiled engine applies a backend's dispatcher to each call
   site's name once, when it compiles the module, and calls the handler
   it got on every execution; the interpreter applies it on every call.
   A dispatcher that counts its name matches sees 3 on the compiled
   engine however long the loop runs. A 2-ary counting wrapper, the
   shape bench/perf's traced run puts around the dispatcher, still sees
   every call: the same per-callee counts on both engines for NAS IS,
   guards and chunk accesses included. *)
let test_staged_handlers () =
  let loop n =
    let m = Ir.create_module () in
    let b = Builder.create m ~name:"main" ~nparams:0 in
    let p = Builder.call b "malloc" [ Ir.Const (8 * n) ] in
    ignore (Builder.call b "!bench_begin" []);
    Builder.for_loop b ~init:(Ir.Const 0) ~bound:(Ir.Const n) (fun b iv ->
        ignore (Builder.call b "!count" [ iv ]);
        let g = Builder.gep b p ~index:iv ~scale:8 () in
        ignore (Builder.call b "!count" [ g; Ir.Const 8 ]);
        Builder.store b iv ~ptr:g);
    Builder.ret b (Some (Ir.Const 0));
    m
  in
  List.iter
    (fun n ->
      List.iter
        (fun engine ->
          let label =
            Printf.sprintf "%s, %d iterations" (Engine.to_string engine) n
          in
          let matches = ref 0 and calls = ref 0 in
          let base =
            Backend.local Cost_model.default (Clock.create ())
              (Memstore.create ())
          in
          let backend =
            {
              base with
              Backend.intrinsic =
                (fun name ->
                  incr matches;
                  match name with
                  | "!count" ->
                      fun _ ->
                        incr calls;
                        Some 0
                  | _ -> base.Backend.intrinsic name);
            }
          in
          ignore (Engine.run ~engine backend (loop n) ~entry:"main");
          let want =
            match engine with Engine.Compiled -> 3 | Engine.Interp -> (2 * n) + 1
          in
          Alcotest.(check int) (label ^ ": name matches") want !matches;
          Alcotest.(check int) (label ^ ": handler calls") (2 * n) !calls)
        Engine.all)
    [ 5; 50 ];
  let w = Nas.sub_class Nas.IS in
  let profile = Driver.profile_of w.build in
  let counts engine =
    let m = w.build () in
    ignore
      (Trackfm.Pipeline.run
         { Trackfm.Pipeline.default_config with profile = Some profile }
         m);
    let clock = Clock.create () and store = Memstore.create () in
    let rt =
      Trackfm.Runtime.create Cost_model.default clock store ~object_size:4096
        ~local_budget:(w.working_set / 2)
    in
    let backend = Backend.trackfm rt store in
    let tally = Hashtbl.create 16 in
    let counted =
      {
        backend with
        Backend.intrinsic =
          (fun name args ->
            let k = Option.value ~default:0 (Hashtbl.find_opt tally name) in
            Hashtbl.replace tally name (k + 1);
            backend.Backend.intrinsic name args);
      }
    in
    ignore (Engine.run ~engine counted m ~entry:"main");
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tally [])
  in
  let interp = counts Engine.Interp in
  let calls prefix =
    List.fold_left
      (fun acc (k, v) -> if String.starts_with ~prefix k then acc + v else acc)
      0 interp
  in
  Alcotest.(check bool) "guard calls counted" true (calls "tfm_guard_" > 0);
  Alcotest.(check bool) "chunk calls counted" true
    (calls "tfm_chunk_access_" > 0);
  Alcotest.(check (list (pair string int)))
    "per-callee calls, compiled = interpreter" interp (counts Engine.Compiled)

(* [count_loop n]: header (phis [i] and [acc]) -> body -> latch ->
   header, n times; returns the sum of [i * 3 + 1] masked to 30 bits.
   Three blocks, two phis, a conditional and an unconditional branch. *)
let count_loop n =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let acc =
    Builder.for_loop_acc b ~init:(Ir.Const 0) ~bound:(Ir.Const n)
      ~accs:[ Ir.Const 0 ]
      (fun b ~iv ~accs ->
        let t = Builder.add b (Builder.mul b iv (Ir.Const 3)) (Ir.Const 1) in
        [ Builder.binop b Ir.And (Builder.add b (List.hd accs) t)
            (Ir.Const 0x3FFFFFFF) ])
  in
  Builder.ret b (Some (List.hd acc));
  Verifier.check_module m;
  m

let run_local ?fuel engine m =
  Engine.run ?fuel ~engine
    (Backend.local Cost_model.default (Clock.create ()) (Memstore.create ()))
    m ~entry:"main"

(* Blocks end in tail calls, so a loop runs in constant OCaml stack: a
   million iterations fit in a 16K-word stack, where one OCaml frame per
   executed block would overflow it. *)
let test_bounded_stack () =
  let n = 1_000_000 in
  let m = count_loop n in
  let want = ref 0 in
  for i = 0 to n - 1 do
    want := (!want + (i * 3) + 1) land 0x3FFFFFFF
  done;
  let saved = Gc.get () in
  Gc.set { saved with Gc.stack_limit = 16 * 1024 };
  let r =
    match run_local Engine.Compiled m with
    | r ->
        Gc.set saved;
        r
    | exception e ->
        Gc.set saved;
        raise e
  in
  Alcotest.(check int) "ret" !want r.Interp.ret

(* Each block charges its instruction units to the fuel before it runs,
   and the units spent are the instruction count: with exactly that much
   fuel both engines finish and agree, with one unit less both trap. *)
let test_fuel_parity () =
  let m = count_loop 37 in
  let full = run_local Engine.Interp m in
  let need = full.Interp.instrs_executed in
  List.iter
    (fun engine ->
      let name = Engine.to_string engine in
      let r = run_local ~fuel:need engine m in
      Alcotest.(check int) (name ^ ": instrs with exact fuel") need
        r.Interp.instrs_executed;
      Alcotest.(check int) (name ^ ": ret") full.Interp.ret r.Interp.ret;
      Alcotest.(check int) (name ^ ": cycles") full.Interp.cycles
        r.Interp.cycles;
      match run_local ~fuel:(need - 1) engine m with
      | _ -> Alcotest.failf "%s: ran on one unit less fuel" name
      | exception Interp.Trap msg ->
          Alcotest.(check string) (name ^ ": trap") "out of fuel (infinite loop?)"
            msg)
    Engine.all

(* Phis run in order, each reading what the block's earlier phis just
   wrote: the swap [a = phi b'], [b' = phi a] leaves both equal to the
   old [b'], and [c = phi a] reads the new [a]. *)
let test_phi_order () =
  let n = 9 in
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let entry = Builder.current_label b in
  let header = Builder.add_block b "header" in
  let latch = Builder.add_block b "latch" in
  let exit = Builder.add_block b "exit" in
  Builder.br b header;
  Builder.set_block b header;
  let i = Builder.phi b [ (entry, Ir.Const 0) ] in
  let a = Builder.phi b [ (entry, Ir.Const 1) ] in
  let b' = Builder.phi b [ (entry, Ir.Const 2) ] in
  let c = Builder.phi b [ (entry, Ir.Const 3) ] in
  let s = Builder.phi b [ (entry, Ir.Const 0) ] in
  let more = Builder.icmp b Ir.Lt i (Ir.Const n) in
  Builder.cbr b more latch exit;
  Builder.set_block b latch;
  let i' = Builder.add b i (Ir.Const 1) in
  let mix =
    Builder.add b
      (Builder.add b (Builder.mul b a (Ir.Const 7)) (Builder.mul b b' (Ir.Const 5)))
      (Builder.add b c i)
  in
  let s' =
    Builder.binop b Ir.And
      (Builder.add b (Builder.mul b s (Ir.Const 31)) mix)
      (Ir.Const 0x3FFFFFFF)
  in
  Builder.br b header;
  Builder.patch_phi b i latch i';
  Builder.patch_phi b a latch b';
  Builder.patch_phi b b' latch a;
  Builder.patch_phi b c latch a;
  Builder.patch_phi b s latch s';
  Builder.set_block b exit;
  Builder.ret b
    (Some
       (Builder.add b (Builder.mul b s (Ir.Const 1000))
          (Builder.add b (Builder.mul b b' (Ir.Const 10)) c)));
  Verifier.check_module m;
  (* The same loop in OCaml, one phi after another. *)
  let i = ref 0 and a = ref 1 and b = ref 2 and c = ref 3 and s = ref 0 in
  while !i < n do
    let mix = (!a * 7) + (!b * 5) + !c + !i in
    s := ((!s * 31) + mix) land 0x3FFFFFFF;
    i := !i + 1;
    a := !b;
    b := !a;
    c := !a
  done;
  let want = (!s * 1000) + (!b * 10) + !c in
  List.iter
    (fun engine ->
      Alcotest.(check int) (Engine.to_string engine) want
        (run_local engine m).Interp.ret)
    Engine.all

(* A direct call allocates its argument array, not its callee's
   registers: minor words per call are the same for a helper with 200
   registers as for one with 4. Each side is the difference of two runs,
   so compiling the helper, which grows with it, cancels out. *)
let test_call_frames_reused () =
  let module_with ~regs =
    let m = Ir.create_module () in
    let h = Builder.create m ~name:"helper" ~nparams:1 in
    let v = ref (Builder.arg 0) in
    for _ = 1 to regs do
      v := Builder.add h !v (Ir.Const 1)
    done;
    Builder.ret h (Some !v);
    let b = Builder.create m ~name:"main" ~nparams:1 in
    Builder.for_loop b ~init:(Ir.Const 0) ~bound:(Builder.arg 0) (fun b iv ->
        ignore (Builder.call b "helper" [ iv ]));
    Builder.ret b (Some (Ir.Const 0));
    m
  in
  let words m n =
    let backend =
      Backend.local Cost_model.default (Clock.create ()) (Memstore.create ())
    in
    let before = Gc.minor_words () in
    ignore
      (Engine.run ~engine:Engine.Compiled ~args:[ n ] backend m ~entry:"main");
    Gc.minor_words () -. before
  in
  let per_call m = (words m 11_000 -. words m 1_000) /. 10_000. in
  let small = per_call (module_with ~regs:4)
  and big = per_call (module_with ~regs:200) in
  if big > small +. 0.5 then
    Alcotest.failf "%.1f words per call to a 200-register helper, %.1f to a \
                    4-register one" big small

(* The chunking gate reads block counts, and the driver counts them on
   the compiled engine for an interpreted run too, so both engines must
   count the same blocks: every matrix workload, blob-fed ones included,
   and llist's recursive tree walk. *)
let test_profile_parity () =
  List.iter
    (fun (w : Workload.t) ->
      let blobs = Lazy.force w.blobs in
      let interp = Driver.profile_of ~engine:Engine.Interp ~blobs w.build in
      let compiled =
        Driver.profile_of ~engine:Engine.Compiled ~blobs w.build
      in
      let total = ref 0 in
      List.iter
        (fun (f : Ir.func) ->
          List.iter
            (fun (b : Ir.block) ->
              let count p =
                Profile.block_count p ~func:f.Ir.fname ~block:b.Ir.label
              in
              total := !total + count interp;
              Alcotest.(check int)
                (Printf.sprintf "%s: %s/%s" w.name f.Ir.fname b.Ir.label)
                (count interp) (count compiled))
            f.Ir.blocks)
        (w.build ()).Ir.funcs;
      Alcotest.(check bool)
        (w.name ^ ": blocks were counted")
        true (!total > 0))
    (List.map fst (matrix ()) @ [ Llist.workload ~nodes:800 ~tnodes:300 ])

let suite =
  ( "engine",
    [
      Alcotest.test_case "trackfm matrix: engines agree" `Slow
        test_trackfm_matrix;
      Alcotest.test_case "guarded stores through a plain register" `Quick
        test_plain_register_stores;
      Alcotest.test_case "local/fastswap: engines agree" `Quick
        test_local_and_fastswap;
      Alcotest.test_case "compiled float checksum" `Quick test_float_checksum;
      Alcotest.test_case "miscompiled closure is caught" `Quick
        test_miscompile_is_caught;
      Alcotest.test_case "recursion and trap parity" `Quick
        test_recursion_and_traps;
      Alcotest.test_case "threaded loop in bounded stack" `Quick
        test_bounded_stack;
      Alcotest.test_case "fuel is the instruction count" `Quick
        test_fuel_parity;
      Alcotest.test_case "phis read in order" `Quick test_phi_order;
      Alcotest.test_case "call frames are reused" `Quick
        test_call_frames_reused;
      Alcotest.test_case "block profiles agree" `Quick test_profile_parity;
      Alcotest.test_case "intrinsic handlers staged per call site" `Slow
        test_staged_handlers;
    ] )
