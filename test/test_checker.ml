(* Tests for the static-analysis suite: the guard-coverage verifier
   (negative cases must be flagged with the offending instruction), the
   elision-witness re-check, the verifier's intrinsic-call validation,
   and the guard optimizer's rewrites (same-pointer, congruent widening,
   RMW upgrade, hoisting, loop-range) — each checked both structurally
   and through the checker that has to re-prove it. *)

module Coverage = Tfm_checker.Coverage
module Elide = Trackfm.Elide_pass

(* One part each of the report from the checker's entry point. *)
let violations m = (Coverage.check m).Coverage.violations

let witness_errors m els =
  (Coverage.check ~witnesses:els m).Coverage.witness_errors

let routing_errors m routes =
  (Coverage.check ~routes m).Coverage.routing_errors

let count_guards (m : Ir.modul) =
  List.fold_left
    (fun acc (f : Ir.func) ->
      List.fold_left
        (fun acc (b : Ir.block) ->
          List.fold_left
            (fun acc (i : Ir.instr) ->
              match i.kind with
              | Ir.Call { callee; _ }
                when callee = Intrinsics.guard_read
                     || callee = Intrinsics.guard_write ->
                  acc + 1
              | _ -> acc)
            acc b.instrs)
        acc f.blocks)
    0 m.funcs

(* -- negative coverage cases: the checker must flag these ------------- *)

let test_checker_flags_missing_guard () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let p = Builder.call b "malloc" [ Ir.Const 64 ] in
  let v = Builder.load b p in
  (* no guard anywhere *)
  Builder.ret b (Some v);
  Verifier.check_module m;
  let load_id = match v with Ir.Reg id -> id | _ -> assert false in
  let malloc_id = match p with Ir.Reg id -> id | _ -> assert false in
  match violations m with
  | [ viol ] ->
      Alcotest.(check int) "offending instruction" load_id viol.Coverage.instr;
      Alcotest.(check bool) "is a load" false viol.Coverage.is_store;
      (* the closest preceding custody clobber is the allocation itself *)
      Alcotest.(check bool) "killer is the malloc" true
        (viol.Coverage.killer = Some malloc_id)
  | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs)

let test_checker_flags_wrong_pointer_guard () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let p = Builder.call b "malloc" [ Ir.Const 64 ] in
  let q = Builder.call b "malloc" [ Ir.Const 64 ] in
  ignore (Builder.call b Intrinsics.guard_read [ q; Ir.Const 8 ]);
  let v = Builder.load b p in
  (* guarded q, accessed p *)
  Builder.ret b (Some v);
  Verifier.check_module m;
  let load_id = match v with Ir.Reg id -> id | _ -> assert false in
  match violations m with
  | [ viol ] ->
      Alcotest.(check int) "offending instruction" load_id viol.Coverage.instr
  | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs)

let test_checker_flags_guard_killed_by_call () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let p = Builder.call b "malloc" [ Ir.Const 64 ] in
  ignore (Builder.call b Intrinsics.guard_read [ p; Ir.Const 8 ]);
  ignore (Builder.load b p);
  (* fine: guarded *)
  let killer = Builder.call b "opaque_helper" [] in
  let v = Builder.load b p in
  (* custody died at the opaque call *)
  Builder.ret b (Some v);
  Verifier.check_module m;
  let load_id = match v with Ir.Reg id -> id | _ -> assert false in
  let killer_id = match killer with Ir.Reg id -> id | _ -> assert false in
  match violations m with
  | [ viol ] ->
      Alcotest.(check int) "offending instruction" load_id viol.Coverage.instr;
      Alcotest.(check bool) "killer attributed" true
        (viol.Coverage.killer = Some killer_id)
  | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs)

let test_checker_accepts_guarded_access () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let p = Builder.call b "malloc" [ Ir.Const 64 ] in
  ignore (Builder.call b Intrinsics.guard_read [ p; Ir.Const 8 ]);
  let v = Builder.load b p in
  Builder.ret b (Some v);
  Verifier.check_module m;
  Alcotest.(check int) "no violations" 0
    (List.length (violations m));
  Coverage.enforce m (* must not raise *)

(* -- verifier intrinsic validation ------------------------------------ *)

let expect_ill_formed name build =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  build b;
  Builder.ret b None;
  match Verifier.check_module m with
  | () -> Alcotest.failf "%s: expected Ill_formed" name
  | exception Verifier.Ill_formed _ -> ()

let test_verifier_rejects_malformed_intrinsics () =
  expect_ill_formed "guard arity" (fun b ->
      let p = Builder.call b "malloc" [ Ir.Const 64 ] in
      ignore (Builder.call b Intrinsics.guard_read [ p ]));
  expect_ill_formed "guard float pointer" (fun b ->
      ignore
        (Builder.call b Intrinsics.guard_read [ Ir.Constf 1.0; Ir.Const 8 ]));
  expect_ill_formed "guard non-positive size" (fun b ->
      let p = Builder.call b "malloc" [ Ir.Const 64 ] in
      ignore (Builder.call b Intrinsics.guard_write [ p; Ir.Const 0 ]));
  expect_ill_formed "chunk_end non-const handle" (fun b ->
      let p = Builder.call b "malloc" [ Ir.Const 64 ] in
      ignore (Builder.call b "!tfm_chunk_end" [ p ]))

let test_verifier_accepts_wellformed_intrinsics () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let p = Builder.call b "malloc" [ Ir.Const 64 ] in
  ignore (Builder.call b Intrinsics.guard_read [ p; Ir.Const 8 ]);
  ignore (Builder.call b Intrinsics.guard_write [ p; Ir.Const 16 ]);
  ignore (Builder.load b p);
  Builder.ret b None;
  Verifier.check_module m

(* -- elision rewrites -------------------------------------------------- *)

let test_elide_same_pointer () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let p = Builder.call b "malloc" [ Ir.Const 64 ] in
  ignore (Builder.call b Intrinsics.guard_read [ p; Ir.Const 8 ]);
  ignore (Builder.load b p);
  ignore (Builder.call b Intrinsics.guard_read [ p; Ir.Const 8 ]);
  ignore (Builder.load b p);
  Builder.ret b None;
  Verifier.check_module m;
  let r = Elide.run ~object_size:4096 m in
  Alcotest.(check int) "one same-pointer elision" 1 r.Elide.elided_same;
  Alcotest.(check int) "one guard left" 1 (count_guards m);
  Coverage.enforce ~witnesses:r.Elide.elisions m

let test_elide_rmw_upgrade () =
  (* load x; store f(x) through the same pointer: the read guard is
     promoted to a write guard and the separate write guard goes away *)
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let p = Builder.call b "malloc" [ Ir.Const 64 ] in
  ignore (Builder.call b Intrinsics.guard_read [ p; Ir.Const 8 ]);
  let v = Builder.load b p in
  ignore (Builder.call b Intrinsics.guard_write [ p; Ir.Const 8 ]);
  Builder.store b (Builder.add b v (Ir.Const 1)) ~ptr:p;
  Builder.ret b None;
  Verifier.check_module m;
  let r = Elide.run ~object_size:4096 m in
  Alcotest.(check int) "upgrade happened" 1 r.Elide.upgraded;
  Alcotest.(check int) "write guard elided" 1 r.Elide.elided_same;
  Alcotest.(check int) "one guard left" 1 (count_guards m);
  let f = Ir.find_func m "main" in
  let surviving_is_write =
    List.exists
      (fun (b : Ir.block) ->
        List.exists
          (fun (i : Ir.instr) ->
            match i.kind with
            | Ir.Call { callee; _ } -> callee = Intrinsics.guard_write
            | _ -> false)
          b.instrs)
      f.blocks
  in
  Alcotest.(check bool) "survivor is a write guard" true surviving_is_write;
  Coverage.enforce ~witnesses:r.Elide.elisions m

let test_elide_congruent_widening () =
  (* guards on two fields of one struct (same base, constant offsets):
     the first widens to span both, the second is deleted *)
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let p = Builder.call b "malloc" [ Ir.Const 64 ] in
  ignore (Builder.call b Intrinsics.guard_read [ p; Ir.Const 8 ]);
  ignore (Builder.load b p);
  let field1 = Builder.gep b p ~index:(Ir.Const 1) ~scale:8 () in
  ignore (Builder.call b Intrinsics.guard_read [ field1; Ir.Const 8 ]);
  ignore (Builder.load b field1);
  Builder.ret b None;
  Verifier.check_module m;
  let r = Elide.run ~object_size:4096 m in
  Alcotest.(check int) "widened" 1 r.Elide.widened;
  Alcotest.(check int) "congruent elision" 1 r.Elide.elided_congruent;
  Alcotest.(check int) "one guard left" 1 (count_guards m);
  (* the surviving guard spans both fields *)
  let f = Ir.find_func m "main" in
  let sixteen =
    List.exists
      (fun (b : Ir.block) ->
        List.exists
          (fun (i : Ir.instr) ->
            match i.kind with
            | Ir.Call { callee; args = [ _; Ir.Const 16 ] } ->
                callee = Intrinsics.guard_read
            | _ -> false)
          b.instrs)
      f.blocks
  in
  Alcotest.(check bool) "survivor widened to 16 bytes" true sixteen;
  Coverage.enforce ~witnesses:r.Elide.elisions m

let test_elide_hoists_invariant_guard () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let p = Builder.call b "malloc" [ Ir.Const 64 ] in
  let sums =
    Builder.for_loop_acc b ~init:(Ir.Const 0) ~bound:(Ir.Const 100)
      ~accs:[ Ir.Const 0 ]
      (fun b ~iv:_ ~accs ->
        ignore (Builder.call b Intrinsics.guard_read [ p; Ir.Const 8 ]);
        let v = Builder.load b p in
        [ Builder.add b (List.hd accs) v ])
  in
  Builder.ret b (Some (List.hd sums));
  Verifier.check_module m;
  let r = Elide.run ~object_size:4096 m in
  Alcotest.(check int) "hoisted" 1 r.Elide.hoisted;
  Alcotest.(check int) "one guard total" 1 (count_guards m);
  (* the loop body no longer contains the guard *)
  let f = Ir.find_func m "main" in
  let li = Loops.analyze f in
  let loop = List.hd (Loops.loops li) in
  let body_guards =
    List.fold_left
      (fun acc lbl ->
        let blk = Ir.find_block f lbl in
        List.fold_left
          (fun acc (i : Ir.instr) ->
            match i.kind with
            | Ir.Call { callee; _ } when callee = Intrinsics.guard_read ->
                acc + 1
            | _ -> acc)
          acc blk.instrs)
      0 loop.Loops.body
  in
  Alcotest.(check int) "loop body guard-free" 0 body_guards;
  Coverage.enforce ~witnesses:r.Elide.elisions m

(* -- loop-range elision, end to end through the pipeline --------------- *)

let two_pass_program () =
  (* write arr[i] in one counted loop, read it back in a second: the
     second loop's guards are covered by the first loop's range fact *)
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let n = 200 in
  let arr = Builder.call b "malloc" [ Ir.Const (n * 8) ] in
  Builder.for_loop b ~hint:"fill" ~init:(Ir.Const 0) ~bound:(Ir.Const n)
    (fun b iv ->
      Builder.store b iv ~ptr:(Builder.gep b arr ~index:iv ~scale:8 ()));
  let sums =
    Builder.for_loop_acc b ~hint:"sum" ~init:(Ir.Const 0) ~bound:(Ir.Const n)
      ~accs:[ Ir.Const 0 ]
      (fun b ~iv ~accs ->
        let v = Builder.load b (Builder.gep b arr ~index:iv ~scale:8 ()) in
        [ Builder.add b (List.hd accs) v ])
  in
  Builder.ret b (Some (List.hd sums));
  Verifier.check_module m;
  m

let run_pipeline_and_interp ~elide m =
  let report =
    Trackfm.Pipeline.run
      { Trackfm.Pipeline.default_config with chunk_mode = `Off; elide }
      m
  in
  let clock = Clock.create () in
  let store = Memstore.create () in
  let rt =
    Trackfm.Runtime.create Cost_model.default clock store ~object_size:4096
      ~local_budget:(64 * 4096)
  in
  let res = Interp.run (Backend.trackfm rt store) m ~entry:"main" in
  (res.Interp.ret, Clock.get clock "tfm.fast_guards" + Clock.get clock "tfm.slow_guards", report)

let test_elide_range_across_loops () =
  let plain_ret, plain_guards, _ =
    run_pipeline_and_interp ~elide:false (two_pass_program ())
  in
  let opt_ret, opt_guards, report =
    run_pipeline_and_interp ~elide:true (two_pass_program ())
  in
  Alcotest.(check int) "results identical" plain_ret opt_ret;
  Alcotest.(check bool) "range elision fired" true
    (report.Trackfm.Pipeline.elision.Elide.elided_range >= 1);
  Alcotest.(check bool) "dynamic guards reduced" true
    (opt_guards < plain_guards)

(* -- witness independence: tampering is caught ------------------------- *)

let test_witness_recheck_rejects_tampering () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let p = Builder.call b "malloc" [ Ir.Const 64 ] in
  ignore (Builder.call b Intrinsics.guard_read [ p; Ir.Const 8 ]);
  ignore (Builder.load b p);
  ignore (Builder.call b Intrinsics.guard_read [ p; Ir.Const 8 ]);
  ignore (Builder.load b p);
  Builder.ret b None;
  let r = Elide.run ~object_size:4096 m in
  Alcotest.(check int) "elided" 1 (Elide.total_elided r);
  (* now delete the surviving witness guard behind the optimizer's back *)
  let f = Ir.find_func m "main" in
  List.iter
    (fun (blk : Ir.block) ->
      blk.instrs <-
        List.filter
          (fun (i : Ir.instr) ->
            match i.kind with
            | Ir.Call { callee; _ } -> callee <> Intrinsics.guard_read
            | _ -> true)
          blk.instrs)
    f.blocks;
  let errs = witness_errors m r.Elide.elisions in
  Alcotest.(check bool) "witness re-check fails" true (errs <> []);
  (* The per-function check over a structure of the tampered function
     returns the same errors. *)
  Alcotest.(check (list string)) "per-function check agrees" errs
    (Coverage.check_witnesses_func
       ~call_clobbers:(Coverage.module_call_clobbers m)
       (Induction.analyze f)
       (List.map snd r.Elide.elisions));
  Alcotest.(check bool) "coverage fails too" true
    (violations m <> [])

(* -- interprocedural summaries: cross-call elision and tampering ------- *)

(* main: guard p; load p; call helper(); guard p; load p.
   [mk_helper] controls whether the helper really preserves custody. *)
let cross_call_module ~helper_stores =
  let m = Ir.create_module () in
  let bh = Builder.create m ~name:"helper" ~nparams:1 in
  if helper_stores then begin
    ignore
      (Builder.call bh Intrinsics.guard_write [ Builder.arg 0; Ir.Const 8 ]);
    Builder.store bh (Ir.Const 1) ~ptr:(Builder.arg 0)
  end;
  Builder.ret bh (Some (Builder.add bh (Builder.arg 0) (Ir.Const 1)));
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let p = Builder.call b "malloc" [ Ir.Const 64 ] in
  ignore (Builder.call b Intrinsics.guard_read [ p; Ir.Const 8 ]);
  ignore (Builder.load b p);
  ignore (Builder.call b "helper" [ p ]);
  ignore (Builder.call b Intrinsics.guard_read [ p; Ir.Const 8 ]);
  let v = Builder.load b p in
  Builder.ret b (Some v);
  Verifier.check_module m;
  m

let test_cross_call_elision_needs_summaries () =
  (* without summaries the call conservatively clobbers custody and the
     second guard must stay; with summaries the pure helper is proven
     custody-preserving and the guard is elided *)
  let m1 = cross_call_module ~helper_stores:false in
  let r1 = Elide.run ~object_size:4096 m1 in
  Alcotest.(check int) "no elision without summaries" 0 (Elide.total_elided r1);
  let m2 = cross_call_module ~helper_stores:false in
  let env = Tfm_analysis.Summary.compute m2 in
  let r2 = Elide.run ~summaries:env ~object_size:4096 m2 in
  Alcotest.(check int) "cross-call elision with summaries" 1
    (Elide.total_elided r2);
  Alcotest.(check int) "one guard left" 1 (count_guards m2);
  (* the final independent checks accept the result *)
  Coverage.enforce ~witnesses:r2.Elide.elisions m2

let test_cross_call_elision_respects_impure_helper () =
  (* the helper stores through its argument: even with summaries the
     call clobbers custody and nothing may be elided *)
  let m = cross_call_module ~helper_stores:true in
  let env = Tfm_analysis.Summary.compute m in
  let r = Elide.run ~summaries:env ~object_size:4096 m in
  Alcotest.(check int) "no elision across impure call" 0
    (Elide.total_elided r);
  Coverage.enforce m

let test_checker_catches_tampered_summary () =
  (* inject a deliberately wrong summary (the storing helper declared
     custody-safe): the elider trusts it and removes the second guard,
     but the module checker and the witness re-check — both recomputing
     the call-clobber relation independently — must refuse the result *)
  let m = cross_call_module ~helper_stores:true in
  let env = Tfm_analysis.Summary.compute m in
  Tfm_analysis.Summary.set env "helper"
    {
      Tfm_analysis.Summary.ret = Tfm_analysis.Summary.Pnone;
      escapes = [| false |];
      eff =
        {
          Tfm_analysis.Summary.reads_heap = false;
          writes_heap = false;
          allocs = false;
          frees = false;
          calls_unknown = false;
        };
      custody_safe = true;
    };
  let r = Elide.run ~summaries:env ~object_size:4096 m in
  Alcotest.(check int) "lying summary lets the elider fire" 1
    (Elide.total_elided r);
  Alcotest.(check bool) "honest coverage check refuses the module" true
    (violations m <> []);
  Alcotest.(check bool) "independent witness re-check refuses the elision"
    true
    (witness_errors m r.Elide.elisions <> []);
  Alcotest.check_raises "enforce raises Unsound"
    (Coverage.Unsound
       (List.map Coverage.violation_to_string (violations m)))
    (fun () -> Coverage.enforce m);
  Alcotest.check_raises "with the witnesses, it raises every finding"
    (Coverage.Unsound
       (List.map Coverage.violation_to_string (violations m)
       @ witness_errors m r.Elide.elisions))
    (fun () -> Coverage.enforce ~witnesses:r.Elide.elisions m)

let test_coverage_diagnostics_name_function () =
  (* the violation string names the enclosing function, not just the
     block — multi-function modules are otherwise undebuggable *)
  let m = Ir.create_module () in
  let bh = Builder.create m ~name:"inner_helper" ~nparams:1 in
  ignore (Builder.load bh (Builder.arg 0));
  Builder.ret bh None;
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let p = Builder.call b "malloc" [ Ir.Const 64 ] in
  ignore (Builder.call b "inner_helper" [ p ]);
  Builder.ret b None;
  Verifier.check_module m;
  match violations m with
  | [ viol ] ->
      let s = Coverage.violation_to_string viol in
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "names the function" true
        (contains s "inner_helper")
  | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs)

(* -- hybrid routing: exactly-one-mechanism and witness tampering ------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let has_err needle errs = List.exists (fun e -> contains e needle) errs

(* The elision pass builds one structure per function before it hoists
   and checks every sweep's deletions against it. After a hoist, that
   structure must answer as a fresh one does: the same successors,
   idoms, loops and induction variables, the same loop invariance of
   every operand, and, over it, the witness check's verdicts for every
   record the pass left, under each rule. Here [p]'s two guards in the
   first loop hoist to its preheader, which then vouches for the guard
   after the loop (a witness the guard's old place in the body would
   not dominate), and the second loop's guards fall to the first loop's
   range. *)
let check_structure_across_hoist () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let p = Builder.call b "malloc" [ Ir.Const 64 ] in
  let arr = Builder.call b "malloc" [ Ir.Const 800 ] in
  let slot i = Builder.gep b arr ~index:i ~scale:8 () in
  let sums =
    Builder.for_loop_acc b ~init:(Ir.Const 0) ~bound:(Ir.Const 100)
      ~accs:[ Ir.Const 0 ]
      (fun b ~iv ~accs ->
        let a = slot iv in
        ignore (Builder.call b Intrinsics.guard_write [ a; Ir.Const 8 ]);
        Builder.store b iv ~ptr:a;
        ignore (Builder.call b Intrinsics.guard_read [ p; Ir.Const 8 ]);
        let v = Builder.load b p in
        ignore (Builder.call b Intrinsics.guard_read [ p; Ir.Const 8 ]);
        [ Builder.add b (List.hd accs) (Builder.add b v (Builder.load b p)) ])
  in
  ignore (Builder.call b Intrinsics.guard_read [ p; Ir.Const 8 ]);
  let after = Builder.load b p in
  let total =
    Builder.for_loop_acc b ~init:(Ir.Const 0) ~bound:(Ir.Const 100)
      ~accs:[ Builder.add b (List.hd sums) after ]
      (fun b ~iv ~accs ->
        let a = slot iv in
        ignore (Builder.call b Intrinsics.guard_read [ a; Ir.Const 8 ]);
        [ Builder.add b (List.hd accs) (Builder.load b a) ])
  in
  Builder.ret b (Some (List.hd total));
  Verifier.check_module m;
  let f = Ir.find_func m "main" in
  let before = Induction.analyze f in
  let r = Elide.run ~object_size:4096 m in
  Verifier.check_module m;
  Alcotest.(check int) "hoisted" 1 r.Elide.hoisted;
  let records = List.map snd r.Elide.elisions in
  let witness_of rule =
    List.find_map
      (fun e -> if e.Coverage.rule = rule then Some e.witness_ids else None)
      records
  in
  Alcotest.(check bool) "a range record" true
    (witness_of Coverage.Range <> None);
  Alcotest.(check bool) "the hoisted guard vouches after the loop" true
    (List.exists
       (fun e ->
         Ir.Reg e.Coverage.access = after
         && e.rule = Coverage.Same
         && Some e.witness_ids = witness_of Coverage.Hoist)
       records);
  let fresh = Induction.analyze f in
  let li_before = Induction.loops before and li = Induction.loops fresh in
  Alcotest.(check bool) "same loops" true
    (Loops.loops li_before = Loops.loops li);
  List.iter
    (fun l ->
      Alcotest.(check (list string)) ("successors of " ^ l)
        (Cfg.successors (Loops.cfg li) l)
        (Cfg.successors (Loops.cfg li_before) l);
      Alcotest.(check (option string)) ("idom of " ^ l)
        (Dominators.idom (Loops.dominators li) l)
        (Dominators.idom (Loops.dominators li_before) l))
    (Cfg.labels (Loops.cfg li));
  let operands =
    List.concat_map
      (fun (blk : Ir.block) ->
        List.concat_map (fun (i : Ir.instr) -> Ir.instr_operands i.kind)
          blk.instrs
        @
        match blk.term with
        | Ir.Cbr (v, _, _) | Ir.Ret (Some v) -> [ v ]
        | Ir.Br _ | Ir.Ret None | Ir.Unreachable -> [])
      f.blocks
  in
  List.iter
    (fun loop ->
      let header = loop.Loops.header in
      Alcotest.(check bool) ("ivs of " ^ header) true
        (Induction.ivs_of_loop before loop = Induction.ivs_of_loop fresh loop);
      Alcotest.(check (list bool)) ("invariance in " ^ header)
        (List.map (Induction.is_loop_invariant fresh loop) operands)
        (List.map (Induction.is_loop_invariant before loop) operands))
    (Loops.loops li);
  Alcotest.(check (list string)) "the pass's records hold" []
    (witness_errors m r.Elide.elisions);
  let call_clobbers = Coverage.module_call_clobbers m in
  List.iter
    (fun e ->
      List.iter
        (fun rule ->
          let e = { e with Coverage.rule } in
          Alcotest.(check (list string)) "the earlier structure's verdict"
            (witness_errors m [ ("main", e) ])
            (Coverage.check_witnesses_func ~call_clobbers before [ e ]))
        Coverage.[ Same; Congruent; Range; Hoist ])
    records

(* The elision sweep checks each deletion against the structure its
   fixpoint built before the sweep began, after deleting guards in
   earlier blocks. Here a deletion in the entry block moves both
   witnesses up one place; the per-function check over the structure
   built before it must still give a fresh check's verdicts: the first
   witness is followed by a clobbering call, the second is clean. The
   same holds across a hoist ([check_structure_across_hoist]). *)
let test_witness_check_after_earlier_deletions () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let id = function Ir.Reg id -> id | _ -> assert false in
  let p = Builder.call b "malloc" [ Ir.Const 64 ] in
  let q = Builder.call b "malloc" [ Ir.Const 64 ] in
  ignore (Builder.call b Intrinsics.guard_read [ q; Ir.Const 8 ]);
  ignore (Builder.load b q);
  let redundant = id (Builder.call b Intrinsics.guard_read [ q; Ir.Const 8 ]) in
  ignore (Builder.load b q);
  let w_clobbered =
    id (Builder.call b Intrinsics.guard_read [ p; Ir.Const 8 ])
  in
  ignore (Builder.call b "opaque_helper" []);
  let w_clean = id (Builder.call b Intrinsics.guard_read [ q; Ir.Const 8 ]) in
  let next = Builder.add_block b "next" in
  Builder.br b next;
  Builder.set_block b next;
  let on_p = id (Builder.load b p) in
  let on_q = id (Builder.load b q) in
  Builder.ret b None;
  Verifier.check_module m;
  let f = Ir.find_func m "main" in
  let before = Induction.analyze f in
  let entry = Ir.entry f in
  entry.instrs <-
    List.filter (fun (i : Ir.instr) -> i.id <> redundant) entry.instrs;
  let records =
    [
      { Coverage.access = on_p; rule = Coverage.Same;
        witness_ids = [ w_clobbered ] };
      { Coverage.access = on_q; rule = Coverage.Same;
        witness_ids = [ w_clean ] };
    ]
  in
  let fresh =
    witness_errors m (List.map (fun e -> ("main", e)) records)
  in
  Alcotest.(check int) "a fresh check rejects only the clobbered witness" 1
    (List.length fresh);
  Alcotest.(check bool) "for the clobber" true
    (has_err "custody clobbered" fresh);
  Alcotest.(check (list string)) "the earlier structure agrees" fresh
    (Coverage.check_witnesses_func
       ~call_clobbers:(Coverage.module_call_clobbers m)
       before records);
  check_structure_across_hoist ()

let test_routing_double_protection_flagged () =
  (* custody from a guard AND an adjacent page call: the checker must
     refuse the double protection and name the smuggled page call *)
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let p = Builder.call b "malloc" [ Ir.Const 64 ] in
  ignore (Builder.call b Intrinsics.guard_read [ p; Ir.Const 8 ]);
  let page = Builder.call b Intrinsics.page_read [ p; Ir.Const 8 ] in
  let v = Builder.load b p in
  Builder.ret b (Some v);
  Verifier.check_module m;
  let load_id = match v with Ir.Reg id -> id | _ -> assert false in
  let page_id = match page with Ir.Reg id -> id | _ -> assert false in
  match violations m with
  | [ viol ] ->
      Alcotest.(check int) "offending access" load_id viol.Coverage.instr;
      Alcotest.(check bool) "flaw is Double naming the page call" true
        (viol.Coverage.flaw = Coverage.Double page_id);
      Alcotest.(check bool) "diagnostic names the site" true
        (contains (Coverage.violation_to_string viol) "main")
  | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs)

let test_routing_neither_mechanism_flagged () =
  (* a page call on the wrong pointer is no protection at all: the
     adjacent access is covered by neither mechanism *)
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let p = Builder.call b "malloc" [ Ir.Const 64 ] in
  let q = Builder.call b "malloc" [ Ir.Const 64 ] in
  ignore (Builder.call b Intrinsics.page_read [ q; Ir.Const 8 ]);
  let v = Builder.load b p in
  Builder.ret b (Some v);
  Verifier.check_module m;
  let load_id = match v with Ir.Reg id -> id | _ -> assert false in
  match violations m with
  | [ viol ] ->
      Alcotest.(check int) "offending access" load_id viol.Coverage.instr;
      Alcotest.(check bool) "flaw is Gap" true
        (viol.Coverage.flaw = Coverage.Gap)
  | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs)

let test_routing_witness_recheck_rejects_tampering () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let p = Builder.call b "malloc" [ Ir.Const 64 ] in
  let malloc_id = match p with Ir.Reg id -> id | _ -> assert false in
  let page = Builder.call b Intrinsics.page_read [ p; Ir.Const 8 ] in
  let v = Builder.load b p in
  Builder.ret b (Some v);
  Verifier.check_module m;
  let load_id = match v with Ir.Reg id -> id | _ -> assert false in
  let page_id = match page with Ir.Reg id -> id | _ -> assert false in
  let good =
    { Coverage.routed_access = load_id; page_call = page_id; cls = "test" }
  in
  Alcotest.(check int) "well-routed module is clean" 0
    (List.length (violations m));
  Alcotest.(check (list string)) "honest witness re-proves" []
    (routing_errors m [ ("main", good) ]);
  (* a page call the witness list does not own is smuggled code *)
  Alcotest.(check bool) "unowned page call rejected" true
    (has_err "stray page call" (routing_errors m []));
  (* a witness pointing at a non-page instruction is a forgery *)
  Alcotest.(check bool) "forged page-call id rejected" true
    (has_err "not a page call"
       (routing_errors m
          [ ("main", { good with Coverage.page_call = malloc_id }) ]));
  (* two witnesses cannot share one page call *)
  Alcotest.(check bool) "double-claimed page call rejected" true
    (has_err "claimed by two"
       (routing_errors m [ ("main", good); ("main", good) ]))

let test_routing_flavor_tampering_caught () =
  (* downgrading a page_write to page_read behind the pass's back must
     fail both the witness re-proof and the coverage check *)
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let p = Builder.call b "malloc" [ Ir.Const 64 ] in
  let page = Builder.call b Intrinsics.page_write [ p; Ir.Const 8 ] in
  Builder.store b (Ir.Const 7) ~ptr:p;
  Builder.ret b None;
  Verifier.check_module m;
  let page_id = match page with Ir.Reg id -> id | _ -> assert false in
  let f = Ir.find_func m "main" in
  let store_id =
    List.concat_map (fun (blk : Ir.block) -> blk.Ir.instrs) f.Ir.blocks
    |> List.filter_map (fun (i : Ir.instr) ->
           match i.Ir.kind with Ir.Store _ -> Some i.Ir.id | _ -> None)
    |> List.hd
  in
  let w =
    { Coverage.routed_access = store_id; page_call = page_id; cls = "test" }
  in
  Alcotest.(check (list string)) "write-flavored routing re-proves" []
    (routing_errors m [ ("main", w) ]);
  (* tamper: rewrite the call to the read flavor in the IR *)
  List.iter
    (fun (blk : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          match i.Ir.kind with
          | Ir.Call { callee; args } when callee = Intrinsics.page_write ->
              i.Ir.kind <- Ir.Call { callee = Intrinsics.page_read; args }
          | _ -> ())
        blk.Ir.instrs)
    f.Ir.blocks;
  Alcotest.(check bool) "witness re-proof fails" true
    (has_err "cannot cover a store" (routing_errors m [ ("main", w) ]));
  Alcotest.(check bool) "coverage check fails too" true
    (violations m <> [])

(* -- shape-fact independence ------------------------------------------ *)

let test_lying_shape_caught_by_shadow_not_checker () =
  (* The helper loads a freshly allocated, never-chased pointer: honest
     shape facts leave its site unrouted. Inject a lying calling context
     claiming a deep chain: the route pass trusts it and moves the site
     to the page path. The structural checker and the routing-witness
     re-proof must still accept the module — they never read shape facts
     and the rewrite is mechanically sound — while the dynamic shadow
     audit observes depth 0 at the site and reports the mismatch. *)
  let m = Ir.create_module () in
  let bh = Builder.create m ~name:"peek" ~nparams:1 in
  let hload = Builder.load bh (Builder.arg 0) in
  Builder.ret bh (Some hload);
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let arena = Builder.call b "malloc" [ Ir.Const 64 ] in
  Builder.store b (Ir.Const 5) ~ptr:arena;
  let acc =
    Builder.for_loop_acc b ~init:(Ir.Const 0) ~bound:(Ir.Const 4)
      ~accs:[ Ir.Const 0 ]
      (fun b ~iv:_ ~accs ->
        [ Builder.add b (List.hd accs) (Builder.call b "peek" [ arena ]) ])
  in
  Builder.ret b (Some (List.hd acc));
  Verifier.check_module m;
  let load_id = match hload with Ir.Reg id -> id | _ -> assert false in
  ignore (Trackfm.Init_pass.run m);
  ignore (Trackfm.Libc_pass.run m);
  let summaries = Tfm_analysis.Summary.compute m in
  ignore (Trackfm.Guard_pass.run ~summaries m);
  let shapes = Tfm_analysis.Shape.analyze m in
  let honest =
    Trackfm.Route_pass.run ~summaries ~shapes ~mode:`Static m
  in
  Alcotest.(check int) "honest shape facts route nothing" 0
    honest.Trackfm.Route_pass.routed;
  Tfm_analysis.Shape.set_context shapes "peek"
    { Tfm_analysis.Shape.arg_depth = [| 3 |]; arg_struct = [| Tfm_analysis.Shape.Gtop |] };
  let lied = Trackfm.Route_pass.run ~summaries ~shapes ~mode:`Static m in
  Alcotest.(check int) "the lie routes the helper site" 1
    lied.Trackfm.Route_pass.routed;
  (* checker independence: both re-proofs accept the misrouted module *)
  Coverage.enforce m;
  Alcotest.(check (list string)) "routing witnesses re-prove" []
    (routing_errors m lied.Trackfm.Route_pass.routes);
  (* the dynamic audit is what catches it *)
  let clock = Clock.create () in
  let store = Memstore.create () in
  let rt =
    Trackfm.Runtime.create Cost_model.default clock store ~object_size:4096
      ~local_budget:65_536
  in
  let sh = Shadow.create () in
  let r = Interp.run ~shadow:sh (Backend.trackfm rt store) m ~entry:"main" in
  Alcotest.(check int) "misrouted program still computes correctly" 20
    r.Interp.ret;
  (match
     Shadow.check sh ~func:"peek" ~instr:load_id ~cls:"pointer-chase"
   with
  | Shadow.Mismatch _ -> ()
  | Shadow.Confirmed | Shadow.Unchecked ->
      Alcotest.fail "shadow audit failed to catch the lying shape facts");
  (* and the honest class for the same record would have been accepted *)
  match Shadow.check sh ~func:"peek" ~instr:load_id ~cls:"unknown" with
  | Shadow.Unchecked | Shadow.Confirmed -> ()
  | Shadow.Mismatch e -> Alcotest.fail ("honest class rejected: " ^ e)

(* -- guard pass report invariant --------------------------------------- *)

let test_guard_report_invariant () =
  let workloads =
    Workloads.
      [
        Stream.workload ~n:2_000 Stream.Sum;
        Stream.workload ~n:2_000 Stream.Copy;
        Kmeans.workload (Kmeans.default_params ~n:500);
        Analytics.workload (Analytics.default_params ~rows:500);
      ]
  in
  List.iter
    (fun { Workloads.Workload.name; build; _ } ->
      List.iter
        (fun mode ->
          let m = build () in
          ignore (Trackfm.Init_pass.run m);
          let chunks =
            Trackfm.Chunk_pass.run Cost_model.default ~object_size:4096 ~mode m
          in
          let total =
            List.fold_left
              (fun acc f ->
                acc + List.length (Trackfm.Guard_pass.all_accesses f))
              0 m.Ir.funcs
          in
          let r = Trackfm.Guard_pass.run ~exclude:chunks.Trackfm.Chunk_pass.covered m in
          let sum =
            r.Trackfm.Guard_pass.guarded_loads
            + r.Trackfm.Guard_pass.guarded_stores
            + r.Trackfm.Guard_pass.skipped_non_heap
            + r.Trackfm.Guard_pass.skipped_chunked
          in
          Alcotest.(check int)
            (Printf.sprintf "%s: report buckets partition the accesses" name)
            total sum)
        [ `Off; `Gated; `All ])
    workloads

let suite =
  ( "checker",
    [
      Alcotest.test_case "flags missing guard" `Quick
        test_checker_flags_missing_guard;
      Alcotest.test_case "flags wrong-pointer guard" `Quick
        test_checker_flags_wrong_pointer_guard;
      Alcotest.test_case "flags guard killed by call" `Quick
        test_checker_flags_guard_killed_by_call;
      Alcotest.test_case "accepts guarded access" `Quick
        test_checker_accepts_guarded_access;
      Alcotest.test_case "verifier rejects malformed intrinsics" `Quick
        test_verifier_rejects_malformed_intrinsics;
      Alcotest.test_case "verifier accepts well-formed intrinsics" `Quick
        test_verifier_accepts_wellformed_intrinsics;
      Alcotest.test_case "elide same pointer" `Quick test_elide_same_pointer;
      Alcotest.test_case "elide RMW upgrade" `Quick test_elide_rmw_upgrade;
      Alcotest.test_case "elide congruent widening" `Quick
        test_elide_congruent_widening;
      Alcotest.test_case "elide hoists invariant guard" `Quick
        test_elide_hoists_invariant_guard;
      Alcotest.test_case "range elision across loops" `Quick
        test_elide_range_across_loops;
      Alcotest.test_case "witness re-check rejects tampering" `Quick
        test_witness_recheck_rejects_tampering;
      Alcotest.test_case "witness check after earlier deletions" `Quick
        test_witness_check_after_earlier_deletions;
      Alcotest.test_case "guard report invariant" `Quick
        test_guard_report_invariant;
      Alcotest.test_case "lying shape facts caught by shadow, not checker"
        `Quick test_lying_shape_caught_by_shadow_not_checker;
      Alcotest.test_case "cross-call elision needs summaries" `Quick
        test_cross_call_elision_needs_summaries;
      Alcotest.test_case "cross-call elision respects impure helper" `Quick
        test_cross_call_elision_respects_impure_helper;
      Alcotest.test_case "checker catches tampered summary" `Quick
        test_checker_catches_tampered_summary;
      Alcotest.test_case "coverage diagnostics name function" `Quick
        test_coverage_diagnostics_name_function;
      Alcotest.test_case "routing: double protection flagged" `Quick
        test_routing_double_protection_flagged;
      Alcotest.test_case "routing: neither mechanism flagged" `Quick
        test_routing_neither_mechanism_flagged;
      Alcotest.test_case "routing: witness tampering rejected" `Quick
        test_routing_witness_recheck_rejects_tampering;
      Alcotest.test_case "routing: flavor tampering caught" `Quick
        test_routing_flavor_tampering_caught;
    ] )
