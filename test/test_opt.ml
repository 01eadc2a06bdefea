(* Tests for the O1 pre-optimization pipeline. *)

let run_main m =
  let clock = Clock.create () in
  let backend = Backend.local Cost_model.default clock (Memstore.create ()) in
  (Interp.run backend m ~entry:"main").Interp.ret

let test_constant_fold () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let x = Builder.add b (Ir.Const 2) (Ir.Const 3) in
  let y = Builder.mul b x (Ir.Const 4) in
  Builder.ret b (Some y);
  let f = Ir.find_func m "main" in
  let n1 = Tfm_opt.Opt.constant_fold f in
  Alcotest.(check bool) "folded something" true (n1 > 0);
  (* after one round the mul's operand is Const 5; fold again *)
  ignore (Tfm_opt.Opt.constant_fold f);
  ignore (Tfm_opt.Opt.dce f);
  Alcotest.(check int) "result preserved" 20 (run_main m)

let test_fold_select_and_cmp () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let c = Builder.icmp b Ir.Lt (Ir.Const 1) (Ir.Const 2) in
  let v = Builder.select b c (Ir.Const 10) (Ir.Const 20) in
  Builder.ret b (Some v);
  ignore (Tfm_opt.Opt.run_o1 m);
  Alcotest.(check int) "selected then" 10 (run_main m)

let test_cse_loads_same_block () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let p = Builder.call b "malloc" [ Ir.Const 64 ] in
  Builder.store b (Ir.Const 7) ~ptr:p;
  let v1 = Builder.load b p in
  let v2 = Builder.load b p in
  let v3 = Builder.load b p in
  let s = Builder.add b (Builder.add b v1 v2) v3 in
  Builder.ret b (Some s);
  let f = Ir.find_func m "main" in
  let loads_before =
    List.length
      (List.concat_map
         (fun (blk : Ir.block) ->
           List.filter
             (fun (i : Ir.instr) ->
               match i.kind with Ir.Load _ -> true | _ -> false)
             blk.instrs)
         f.blocks)
  in
  Alcotest.(check int) "3 loads before" 3 loads_before;
  ignore (Tfm_opt.Opt.run_o1 m);
  let loads_after =
    List.length
      (List.concat_map
         (fun (blk : Ir.block) ->
           List.filter
             (fun (i : Ir.instr) ->
               match i.kind with Ir.Load _ -> true | _ -> false)
             blk.instrs)
         f.blocks)
  in
  Alcotest.(check int) "1 load after" 1 loads_after;
  Alcotest.(check int) "result preserved" 21 (run_main m)

let test_cse_killed_by_store () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let p = Builder.call b "malloc" [ Ir.Const 64 ] in
  Builder.store b (Ir.Const 1) ~ptr:p;
  let v1 = Builder.load b p in
  Builder.store b (Ir.Const 2) ~ptr:p;
  let v2 = Builder.load b p in
  Builder.ret b (Some (Builder.add b v1 v2));
  ignore (Tfm_opt.Opt.run_o1 m);
  (* v2 must NOT be replaced by v1 across the intervening store *)
  Alcotest.(check int) "loads not merged across store" 3 (run_main m)

let test_dce_removes_dead_loads () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let p = Builder.call b "malloc" [ Ir.Const 64 ] in
  ignore (Builder.load b p);
  ignore (Builder.load b (Builder.gep b p ~index:(Ir.Const 2) ~scale:8 ()));
  Builder.ret b (Some (Ir.Const 5));
  let f = Ir.find_func m "main" in
  let removed = Tfm_opt.Opt.dce f in
  Alcotest.(check bool) "dead loads and gep removed" true (removed >= 2);
  Alcotest.(check int) "result preserved" 5 (run_main m)

let test_dce_keeps_stores_and_calls () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let p = Builder.call b "malloc" [ Ir.Const 64 ] in
  Builder.store b (Ir.Const 9) ~ptr:p;
  Builder.ret b (Some (Builder.load b p));
  ignore (Tfm_opt.Opt.run_o1 m);
  Alcotest.(check int) "store survives" 9 (run_main m)

let test_o1_reduces_ft_guards () =
  (* The Figure 17b experiment in miniature: O1 cuts the memory
     instructions of the redundant FT kernel substantially. *)
  let w = Workloads.Nas.(workload (default_params FT)) in
  let count_mem m =
    List.fold_left
      (fun acc (f : Ir.func) ->
        List.fold_left
          (fun acc (b : Ir.block) ->
            List.fold_left
              (fun acc (i : Ir.instr) ->
                match i.kind with
                | Ir.Load _ | Ir.Store _ -> acc + 1
                | _ -> acc)
              acc b.instrs)
          acc f.blocks)
      0 m.Ir.funcs
  in
  let m = w.build () in
  let before = count_mem m in
  ignore (Tfm_opt.Opt.run_o1 m);
  let after = count_mem m in
  Alcotest.(check bool) "mem instrs reduced by >30%" true
    (after * 10 < before * 7);
  Alcotest.(check int) "semantics preserved" (Lazy.force w.oracle)
    (run_main m)

let prop_o1_preserves_stream_semantics =
  QCheck.Test.make ~name:"O1 preserves STREAM results" ~count:8
    QCheck.(pair (int_range 100 2000) (int_range 0 3))
    (fun (n, ki) ->
      let kernel =
        List.nth
          [ Workloads.Stream.Sum; Copy; Scale; Triad ]
          ki
      in
      let w = Workloads.Stream.workload ~n kernel in
      let m = w.build () in
      ignore (Tfm_opt.Opt.run_o1 m);
      run_main m = Lazy.force w.oracle)

let test_licm_hoists_invariant_load () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let p = Builder.call b "malloc" [ Ir.Const 64 ] in
  Builder.store b (Ir.Const 5) ~ptr:p;
  let sums =
    Builder.for_loop_acc b ~init:(Ir.Const 0) ~bound:(Ir.Const 100)
      ~accs:[ Ir.Const 0 ]
      (fun b ~iv:_ ~accs ->
        (* the load address is loop-invariant and the loop has no stores *)
        let v = Builder.load b p in
        [ Builder.add b (List.hd accs) v ])
  in
  Builder.ret b (Some (List.hd sums));
  let f = Ir.find_func m "main" in
  let hoisted = Tfm_opt.Opt.licm f in
  Alcotest.(check bool) "hoisted the load" true (hoisted >= 1);
  Verifier.check_module m;
  Alcotest.(check int) "semantics preserved" 500 (run_main m);
  (* the loop body must no longer contain the load *)
  let loop_loads =
    List.concat_map
      (fun (blk : Ir.block) ->
        if blk.label = "entry" then []
        else
          List.filter
            (fun (i : Ir.instr) ->
              match i.kind with Ir.Load _ -> true | _ -> false)
            blk.instrs)
      f.blocks
  in
  Alcotest.(check int) "no loads left in loop" 0 (List.length loop_loads)

let test_licm_respects_stores () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let p = Builder.call b "malloc" [ Ir.Const 64 ] in
  Builder.store b (Ir.Const 1) ~ptr:p;
  let sums =
    Builder.for_loop_acc b ~init:(Ir.Const 0) ~bound:(Ir.Const 5)
      ~accs:[ Ir.Const 0 ]
      (fun b ~iv:_ ~accs ->
        (* load/store to the same invariant address: load must NOT move *)
        let v = Builder.load b p in
        Builder.store b (Builder.add b v v) ~ptr:p;
        [ Builder.add b (List.hd accs) v ])
  in
  Builder.ret b (Some (List.hd sums));
  ignore (Tfm_opt.Opt.licm (Ir.find_func m "main"));
  Verifier.check_module m;
  (* 1+2+4+8+16 = 31 *)
  Alcotest.(check int) "doubling chain preserved" 31 (run_main m)

let test_licm_reduces_guards () =
  (* the whole point: a hoisted load is a hoisted guard *)
  let build hoist () =
    let m = Ir.create_module () in
    let b = Builder.create m ~name:"main" ~nparams:0 in
    let p = Builder.call b "malloc" [ Ir.Const 64 ] in
    Builder.store b (Ir.Const 3) ~ptr:p;
    let sums =
      Builder.for_loop_acc b ~init:(Ir.Const 0) ~bound:(Ir.Const 1000)
        ~accs:[ Ir.Const 0 ]
        (fun b ~iv:_ ~accs ->
          let v = Builder.load b p in
          [ Builder.add b (List.hd accs) v ])
    in
    Builder.ret b (Some (List.hd sums));
    if hoist then ignore (Tfm_opt.Opt.run_o1 m);
    m
  in
  let guards ?(elide = false) hoist =
    let m = build hoist () in
    let r =
      Trackfm.Pipeline.run
        { Trackfm.Pipeline.default_config with chunk_mode = `Off; elide }
        m
    in
    ignore r;
    let clock = Clock.create () in
    let store = Memstore.create () in
    let rt =
      Trackfm.Runtime.create Cost_model.default clock store ~object_size:4096
        ~local_budget:65536
    in
    let res = Interp.run (Backend.trackfm rt store) m ~entry:"main" in
    Alcotest.(check int) "result" 3000 res.Interp.ret;
    Clock.get clock "tfm.fast_guards" + Clock.get clock "tfm.slow_guards"
  in
  let without = guards false and with_o1 = guards true in
  Alcotest.(check bool) "dynamic guards collapse" true (with_o1 < without / 100);
  (* guard hoisting reaches the same collapse with no O1 LICM at all: the
     in-loop guard on the invariant pointer moves to the preheader *)
  let with_elision = guards ~elide:true false in
  Alcotest.(check bool) "elision collapses guards too" true
    (with_elision < without / 100)



let test_simplify_cfg_folds_constant_branch () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let then_l = Builder.add_block b "t" in
  let else_l = Builder.add_block b "e" in
  Builder.cbr b (Ir.Const 1) then_l else_l;
  Builder.set_block b then_l;
  Builder.ret b (Some (Ir.Const 10));
  Builder.set_block b else_l;
  Builder.ret b (Some (Ir.Const 20));
  let f = Ir.find_func m "main" in
  let n = Tfm_opt.Opt.simplify_cfg f in
  Alcotest.(check bool) "changed" true (n > 0);
  Verifier.check_module m;
  Alcotest.(check int) "takes then branch" 10 (run_main m);
  (* the unreachable else block must be gone *)
  Alcotest.(check bool) "dead block removed" false
    (List.exists (fun (blk : Ir.block) -> blk.label = "e1") f.blocks
    && List.length f.blocks > 2)

let test_simplify_cfg_threads_empty_blocks () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let hop1 = Builder.add_block b "hop1" in
  let hop2 = Builder.add_block b "hop2" in
  let final_l = Builder.add_block b "final" in
  Builder.br b hop1;
  Builder.set_block b hop1;
  Builder.br b hop2;
  Builder.set_block b hop2;
  Builder.br b final_l;
  Builder.set_block b final_l;
  Builder.ret b (Some (Ir.Const 7));
  let f = Ir.find_func m "main" in
  let before = Ir.block_count f in
  (* run to fixpoint like O1 does *)
  while Tfm_opt.Opt.simplify_cfg f > 0 do
    ()
  done;
  Verifier.check_module m;
  Alcotest.(check bool) "blocks removed" true (Ir.block_count f < before);
  Alcotest.(check int) "result" 7 (run_main m)

let test_simplify_cfg_preserves_phis () =
  (* A loop's phi arms must stay consistent through simplification. *)
  let w = Workloads.Stream.workload ~n:500 Workloads.Stream.Sum in
  let m = w.build () in
  let f = Ir.find_func m "main" in
  while Tfm_opt.Opt.simplify_cfg f > 0 do
    ()
  done;
  Verifier.check_module m;
  Alcotest.(check int) "stream sum preserved" (Lazy.force w.oracle)
    (run_main m)


(* -- inlining -- *)

let helper_based_program () =
  let m = Ir.create_module () in
  (* get(ptr, i) = load ptr[i] *)
  let bg = Builder.create m ~name:"get_elem" ~nparams:2 in
  let ptr = Builder.gep bg (Builder.arg 0) ~index:(Builder.arg 1) ~scale:8 () in
  Builder.ret bg (Some (Builder.load bg ptr));
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let arr = Builder.call b "malloc" [ Ir.Const (1024 * 8) ] in
  Builder.for_loop b ~hint:"fill" ~init:(Ir.Const 0) ~bound:(Ir.Const 1024)
    (fun b i ->
      Builder.store b (Builder.binop b Ir.And i (Ir.Const 0xFF))
        ~ptr:(Builder.gep b arr ~index:i ~scale:8 ()));
  let sums =
    Builder.for_loop_acc b ~hint:"sum" ~init:(Ir.Const 0)
      ~bound:(Ir.Const 1024) ~accs:[ Ir.Const 0 ]
      (fun b ~iv:i ~accs ->
        let v = Builder.call b "get_elem" [ arr; i ] in
        [ Builder.binop b Ir.And
            (Builder.add b (List.hd accs) v)
            (Ir.Const 0x3FFFFFFF) ])
  in
  Builder.ret b (Some (List.hd sums));
  Verifier.check_module m;
  m

let helper_expected =
  let acc = ref 0 in
  for i = 0 to 1023 do
    acc := (!acc + (i land 0xFF)) land 0x3FFFFFFF
  done;
  !acc

let test_inline_preserves_semantics () =
  let m = helper_based_program () in
  let n = Tfm_opt.Inline.inline_calls m in
  Alcotest.(check bool) "inlined the helper call" true (n >= 1);
  Alcotest.(check int) "result preserved" helper_expected (run_main m)

let test_inline_enables_chunking () =
  (* Without inlining, the strided access hides in the callee and the
     chunk pass finds nothing; after inlining it chunks the loop — the
     whole-program-bitcode effect of the paper's WLLVM setup. *)
  let chunked inline =
    let m = helper_based_program () in
    if inline then ignore (Tfm_opt.Inline.inline_calls m);
    let report =
      Trackfm.Chunk_pass.run Cost_model.default ~object_size:4096 ~mode:`All m
    in
    List.length
      (List.filter
         (fun (c : Trackfm.Chunk_pass.candidate) ->
           c.Trackfm.Chunk_pass.func = "main" && c.Trackfm.Chunk_pass.selected
           && c.Trackfm.Chunk_pass.byte_stride = 8)
         report.Trackfm.Chunk_pass.candidates)
  in
  (* the fill loop is always chunkable; the sum loop only after inlining *)
  Alcotest.(check int) "before: only the fill loop" 1 (chunked false);
  Alcotest.(check int) "after: both loops" 2 (chunked true)

let test_inline_skips_recursive_and_alloca () =
  let m = Ir.create_module () in
  let br_ = Builder.create m ~name:"recur" ~nparams:1 in
  let r = Builder.call br_ "recur" [ Builder.arg 0 ] in
  Builder.ret br_ (Some r);
  let ba = Builder.create m ~name:"with_alloca" ~nparams:0 in
  let slot = Builder.alloca ba 8 in
  Builder.store ba (Ir.Const 3) ~ptr:slot;
  Builder.ret ba (Some (Builder.load ba slot));
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let v = Builder.call b "with_alloca" [] in
  Builder.ret b (Some v);
  let n = Tfm_opt.Inline.inline_calls m in
  Alcotest.(check int) "nothing inlined" 0 n;
  Alcotest.(check int) "still correct" 3 (run_main m)

let test_inline_multiple_returns () =
  let m = Ir.create_module () in
  let bs = Builder.create m ~name:"sign" ~nparams:1 in
  let neg = Builder.add_block bs "neg" in
  let pos = Builder.add_block bs "pos" in
  Builder.cbr bs (Builder.icmp bs Ir.Lt (Builder.arg 0) (Ir.Const 0)) neg pos;
  Builder.set_block bs neg;
  Builder.ret bs (Some (Ir.Const (-1)));
  Builder.set_block bs pos;
  Builder.ret bs (Some (Ir.Const 1));
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let a = Builder.call b "sign" [ Ir.Const (-5) ] in
  let c = Builder.call b "sign" [ Ir.Const 7 ] in
  Builder.ret b (Some (Builder.add b (Builder.mul b a (Ir.Const 10)) c));
  let n = Tfm_opt.Inline.inline_calls m in
  Alcotest.(check int) "both sites inlined" 2 n;
  Alcotest.(check int) "multi-return phi correct" (-9) (run_main m)


(* -- mem2reg -- *)

(* An -O0-style loop: the accumulator and IV both live in stack slots. *)
let o0_style_sum n =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let arr = Builder.call b "malloc" [ Ir.Const (n * 8) ] in
  Builder.for_loop b ~hint:"fill" ~init:(Ir.Const 0) ~bound:(Ir.Const n)
    (fun b i ->
      Builder.store b (Builder.binop b Ir.And i (Ir.Const 0x7F))
        ~ptr:(Builder.gep b arr ~index:i ~scale:8 ()));
  let acc_slot = Builder.alloca b 8 in
  let i_slot = Builder.alloca b 8 in
  Builder.store b (Ir.Const 0) ~ptr:acc_slot;
  Builder.store b (Ir.Const 0) ~ptr:i_slot;
  let header = Builder.add_block b "h" in
  let body = Builder.add_block b "b" in
  let exit_l = Builder.add_block b "x" in
  Builder.br b header;
  Builder.set_block b header;
  let i = Builder.load b i_slot in
  Builder.cbr b (Builder.icmp b Ir.Lt i (Ir.Const n)) body exit_l;
  Builder.set_block b body;
  let i' = Builder.load b i_slot in
  let v = Builder.load b (Builder.gep b arr ~index:i' ~scale:8 ()) in
  let acc = Builder.load b acc_slot in
  Builder.store b
    (Builder.binop b Ir.And (Builder.add b acc v) (Ir.Const 0x3FFFFFFF))
    ~ptr:acc_slot;
  Builder.store b (Builder.add b i' (Ir.Const 1)) ~ptr:i_slot;
  Builder.br b header;
  Builder.set_block b exit_l;
  Builder.ret b (Some (Builder.load b acc_slot));
  Verifier.check_module m;
  m

let o0_expected n =
  let acc = ref 0 in
  for i = 0 to n - 1 do
    acc := (!acc + (i land 0x7F)) land 0x3FFFFFFF
  done;
  !acc

let test_mem2reg_promotes_and_preserves () =
  let n = 500 in
  let m = o0_style_sum n in
  let promoted = Tfm_opt.Mem2reg.run m in
  Alcotest.(check int) "two slots promoted" 2 promoted;
  Verifier.check_module m;
  Alcotest.(check int) "sum preserved" (o0_expected n) (run_main m);
  (* all promotable allocas must be gone *)
  let f = Ir.find_func m "main" in
  let allocas =
    List.concat_map
      (fun (b : Ir.block) ->
        List.filter
          (fun (i : Ir.instr) ->
            match i.kind with Ir.Alloca _ -> true | _ -> false)
          b.instrs)
      f.blocks
  in
  Alcotest.(check int) "no allocas left" 0 (List.length allocas)

let test_mem2reg_exposes_iv_for_chunking () =
  (* Before promotion the loop's IV is a memory cell: no induction
     variable, no chunking. After mem2reg the loop chunks. *)
  let n = 2048 in
  let candidates m =
    let report =
      Trackfm.Chunk_pass.run Cost_model.default ~object_size:4096 ~mode:`All m
    in
    List.length
      (List.filter
         (fun (c : Trackfm.Chunk_pass.candidate) -> c.Trackfm.Chunk_pass.selected)
         report.Trackfm.Chunk_pass.candidates)
  in
  let before = candidates (o0_style_sum n) in
  let m = o0_style_sum n in
  ignore (Tfm_opt.Mem2reg.run m);
  let after = candidates m in
  (* the builder-generated fill loop is always chunkable; the O0-style
     hand loop only after promotion *)
  Alcotest.(check int) "only the fill loop before" 1 before;
  Alcotest.(check int) "both loops after" 2 after

let test_mem2reg_skips_escaping_slot () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let slot = Builder.alloca b 8 in
  Builder.store b (Ir.Const 5) ~ptr:slot;
  (* the address escapes into arithmetic: not promotable *)
  let addr_plus = Builder.add b slot (Ir.Const 0) in
  let v = Builder.load b addr_plus in
  Builder.ret b (Some v);
  let promoted = Tfm_opt.Mem2reg.run m in
  Alcotest.(check int) "escaping slot kept" 0 promoted;
  Alcotest.(check int) "still correct" 5 (run_main m)

let prop_mem2reg_preserves_o0_semantics =
  QCheck.Test.make ~name:"mem2reg preserves O0-style loops" ~count:20
    QCheck.(int_range 1 1500)
    (fun n ->
      let m = o0_style_sum n in
      ignore (Tfm_opt.Mem2reg.run m);
      run_main m = o0_expected n)

let suite =
  ( "opt",
    [
      Alcotest.test_case "constant fold" `Quick test_constant_fold;
      Alcotest.test_case "fold select/cmp" `Quick test_fold_select_and_cmp;
      Alcotest.test_case "cse loads" `Quick test_cse_loads_same_block;
      Alcotest.test_case "cse killed by store" `Quick test_cse_killed_by_store;
      Alcotest.test_case "dce dead loads" `Quick test_dce_removes_dead_loads;
      Alcotest.test_case "dce keeps effects" `Quick test_dce_keeps_stores_and_calls;
      Alcotest.test_case "O1 reduces FT mem instrs" `Quick test_o1_reduces_ft_guards;
      Alcotest.test_case "licm hoists invariant load" `Quick
        test_licm_hoists_invariant_load;
      Alcotest.test_case "licm respects stores" `Quick test_licm_respects_stores;
      Alcotest.test_case "licm reduces guards" `Quick test_licm_reduces_guards;
      Alcotest.test_case "simplify-cfg constant branch" `Quick
        test_simplify_cfg_folds_constant_branch;
      Alcotest.test_case "simplify-cfg threading" `Quick
        test_simplify_cfg_threads_empty_blocks;
      Alcotest.test_case "simplify-cfg phis" `Quick
        test_simplify_cfg_preserves_phis;
      Alcotest.test_case "inline semantics" `Quick test_inline_preserves_semantics;
      Alcotest.test_case "inline enables chunking" `Quick
        test_inline_enables_chunking;
      Alcotest.test_case "inline skips recursive/alloca" `Quick
        test_inline_skips_recursive_and_alloca;
      Alcotest.test_case "inline multiple returns" `Quick
        test_inline_multiple_returns;
      Alcotest.test_case "mem2reg promotes" `Quick
        test_mem2reg_promotes_and_preserves;
      Alcotest.test_case "mem2reg exposes IVs" `Quick
        test_mem2reg_exposes_iv_for_chunking;
      Alcotest.test_case "mem2reg skips escapes" `Quick
        test_mem2reg_skips_escaping_slot;
      QCheck_alcotest.to_alcotest prop_mem2reg_preserves_o0_semantics;
      QCheck_alcotest.to_alcotest prop_o1_preserves_stream_semantics;
    ] )
