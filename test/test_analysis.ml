(* Tests for dominators, loops, induction variables, alias classes and
   profiles. *)

(* A diamond: entry -> (a | b) -> join -> ret *)
let diamond () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"f" ~nparams:1 in
  let a_l = Builder.add_block b "a" in
  let b_l = Builder.add_block b "b" in
  let join = Builder.add_block b "join" in
  Builder.cbr b (Builder.arg 0) a_l b_l;
  Builder.set_block b a_l;
  Builder.br b join;
  Builder.set_block b b_l;
  Builder.br b join;
  Builder.set_block b join;
  Builder.ret b None;
  Verifier.check_module m;
  (m, Ir.find_func m "f", a_l, b_l, join)

let test_dominators_diamond () =
  let _, f, a_l, b_l, join = diamond () in
  let cfg = Cfg.build f in
  let dom = Dominators.compute cfg in
  Alcotest.(check (option string)) "idom(a)=entry" (Some "entry")
    (Dominators.idom dom a_l);
  Alcotest.(check (option string)) "idom(join)=entry" (Some "entry")
    (Dominators.idom dom join);
  Alcotest.(check bool) "entry dominates all" true
    (Dominators.dominates dom "entry" join);
  Alcotest.(check bool) "a does not dominate join" false
    (Dominators.dominates dom a_l join);
  Alcotest.(check bool) "dominates is reflexive" true
    (Dominators.dominates dom b_l b_l)

let simple_loop_func () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"f" ~nparams:0 in
  Builder.for_loop b ~init:(Ir.Const 0) ~bound:(Ir.Const 8) (fun _ _ -> ());
  Builder.ret b None;
  Ir.find_func m "f"

let test_loop_detection () =
  let f = simple_loop_func () in
  let li = Loops.analyze f in
  let loops = Loops.loops li in
  Alcotest.(check int) "one loop" 1 (List.length loops);
  let l = List.hd loops in
  Alcotest.(check int) "depth 1" 1 l.Loops.depth;
  Alcotest.(check bool) "has preheader" true (l.Loops.preheader <> None);
  Alcotest.(check int) "one exit" 1 (List.length l.Loops.exits)

let nested_loop_func () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"f" ~nparams:0 in
  Builder.for_loop b ~hint:"outer" ~init:(Ir.Const 0) ~bound:(Ir.Const 4)
    (fun b _ ->
      Builder.for_loop b ~hint:"inner" ~init:(Ir.Const 0) ~bound:(Ir.Const 4)
        (fun _ _ -> ()));
  Builder.ret b None;
  Ir.find_func m "f"

let test_loop_nesting () =
  let f = nested_loop_func () in
  let li = Loops.analyze f in
  let loops = Loops.loops li in
  Alcotest.(check int) "two loops" 2 (List.length loops);
  let inner = List.find (fun l -> l.Loops.depth = 2) loops in
  let outer = List.find (fun l -> l.Loops.depth = 1) loops in
  Alcotest.(check (option string)) "inner parented by outer"
    (Some outer.Loops.header) inner.Loops.parent;
  Alcotest.(check int) "one innermost" 1 (List.length (Loops.innermost li));
  Alcotest.(check bool) "outer body contains inner header" true
    (Loops.contains outer inner.Loops.header)

let test_induction_basic () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"f" ~nparams:0 in
  let p = Builder.call b "malloc" [ Ir.Const 1024 ] in
  Builder.for_loop b ~init:(Ir.Const 0) ~bound:(Ir.Const 100) ~step:2
    (fun b iv ->
      let ptr = Builder.gep b p ~index:iv ~scale:8 () in
      ignore (Builder.load b ptr));
  Builder.ret b None;
  let f = Ir.find_func m "f" in
  let ind = Induction.analyze f in
  let li = Loops.analyze f in
  let loop = List.hd (Loops.loops li) in
  let ivs = Induction.ivs_of_loop ind loop in
  Alcotest.(check int) "one IV" 1 (List.length ivs);
  let iv = List.hd ivs in
  Alcotest.(check int) "step" 2 iv.Induction.step;
  Alcotest.(check bool) "bound found" true (iv.Induction.bound <> None);
  let accesses = Induction.strided_accesses ind loop in
  Alcotest.(check int) "one strided access" 1 (List.length accesses);
  let a = List.hd accesses in
  Alcotest.(check int) "byte stride = step * scale" 16 a.Induction.byte_stride;
  Alcotest.(check bool) "is load" false a.Induction.is_store

let test_induction_invariant_offset () =
  (* p[d*n + i] walked over i: stride must still be found though d*n is
     only loop-invariant, not constant. *)
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"f" ~nparams:1 in
  let p = Builder.call b "malloc" [ Ir.Const 65536 ] in
  Builder.for_loop b ~hint:"outer" ~init:(Ir.Const 0) ~bound:(Ir.Const 4)
    (fun b d ->
      let dbase = Builder.mul b d (Builder.arg 0) in
      Builder.for_loop b ~hint:"inner" ~init:(Ir.Const 0)
        ~bound:(Ir.Const 100) (fun b i ->
          let idx = Builder.add b dbase i in
          let ptr = Builder.gep b p ~index:idx ~scale:8 () in
          ignore (Builder.load b ptr)));
  Builder.ret b None;
  let f = Ir.find_func m "f" in
  let ind = Induction.analyze f in
  let li = Loops.analyze f in
  let inner = List.find (fun l -> l.Loops.depth = 2) (Loops.loops li) in
  let accesses = Induction.strided_accesses ind inner in
  Alcotest.(check int) "strided access found" 1 (List.length accesses);
  Alcotest.(check int) "stride 8" 8 (List.hd accesses).Induction.byte_stride

let test_induction_rejects_nonaffine () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"f" ~nparams:0 in
  let p = Builder.call b "malloc" [ Ir.Const 65536 ] in
  Builder.for_loop b ~init:(Ir.Const 0) ~bound:(Ir.Const 50) (fun b iv ->
      (* index = iv*iv is not affine *)
      let idx = Builder.mul b iv iv in
      let ptr = Builder.gep b p ~index:idx ~scale:8 () in
      ignore (Builder.load b ptr));
  Builder.ret b None;
  let f = Ir.find_func m "f" in
  let ind = Induction.analyze f in
  let li = Loops.analyze f in
  let loop = List.hd (Loops.loops li) in
  Alcotest.(check int) "no strided access" 0
    (List.length (Induction.strided_accesses ind loop))

let test_induction_while_has_no_governing_iv () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"f" ~nparams:0 in
  let final =
    Builder.while_loop_acc b ~accs:[ Ir.Const 1 ]
      ~cond:(fun b ~accs -> Builder.icmp b Ir.Lt (List.hd accs) (Ir.Const 10))
      (fun b ~accs -> [ Builder.mul b (List.hd accs) (Ir.Const 3) ])
  in
  Builder.ret b (Some (List.hd final));
  let f = Ir.find_func m "f" in
  let ind = Induction.analyze f in
  let li = Loops.analyze f in
  let loop = List.hd (Loops.loops li) in
  (* the accumulator triples each iteration: not a constant-step IV *)
  Alcotest.(check int) "no IVs" 0
    (List.length (Induction.ivs_of_loop ind loop))

let test_alias_classes () =
  let m = Ir.create_module () in
  Ir.add_global m "g" 64;
  let b = Builder.create m ~name:"f" ~nparams:0 in
  let heap = Builder.call b "malloc" [ Ir.Const 64 ] in
  let stack = Builder.alloca b 16 in
  let hgep = Builder.gep b heap ~index:(Ir.Const 1) ~scale:8 () in
  let sgep = Builder.gep b stack ~index:(Ir.Const 0) ~scale:8 () in
  ignore (Builder.load b hgep);
  ignore (Builder.load b sgep);
  ignore (Builder.load b (Ir.Sym "g"));
  Builder.ret b None;
  let f = Ir.find_func m "f" in
  let al = Alias.analyze f in
  Alcotest.(check bool) "heap needs guard" true (Alias.needs_guard al heap);
  Alcotest.(check bool) "heap gep needs guard" true (Alias.needs_guard al hgep);
  Alcotest.(check bool) "stack unguarded" false (Alias.needs_guard al stack);
  Alcotest.(check bool) "stack gep unguarded" false (Alias.needs_guard al sgep);
  Alcotest.(check bool) "global unguarded" false
    (Alias.needs_guard al (Ir.Sym "g"))

let test_alias_phi_join () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"f" ~nparams:0 in
  let heap = Builder.call b "malloc" [ Ir.Const 64 ] in
  let stack = Builder.alloca b 16 in
  let then_l = Builder.add_block b "t" in
  let else_l = Builder.add_block b "e" in
  let join = Builder.add_block b "j" in
  Builder.cbr b (Ir.Const 1) then_l else_l;
  Builder.set_block b then_l;
  Builder.br b join;
  Builder.set_block b else_l;
  Builder.br b join;
  Builder.set_block b join;
  let mixed = Builder.phi b [ (then_l, heap); (else_l, stack) ] in
  ignore (Builder.load b mixed);
  Builder.ret b None;
  Verifier.check_module m;
  let f = Ir.find_func m "f" in
  let al = Alias.analyze f in
  (* heap|stack joins to Unknown, which must be guarded (custody check
     sorts it out at run time) *)
  Alcotest.(check bool) "mixed phi guarded" true (Alias.needs_guard al mixed)

let test_alias_select_join () =
  let m = Ir.create_module () in
  Ir.add_global m "g" 64;
  let b = Builder.create m ~name:"f" ~nparams:0 in
  let heap = Builder.call b "malloc" [ Ir.Const 64 ] in
  let stack = Builder.alloca b 16 in
  (* same-class select stays in its class; mixed select joins to Unknown *)
  let both_stack = Builder.select b (Ir.Const 1) stack stack in
  let mixed = Builder.select b (Ir.Const 1) heap stack in
  let heap_or_global = Builder.select b (Ir.Const 0) heap (Ir.Sym "g") in
  ignore (Builder.load b both_stack);
  ignore (Builder.load b mixed);
  ignore (Builder.load b heap_or_global);
  Builder.ret b None;
  Verifier.check_module m;
  let al = Alias.analyze (Ir.find_func m "f") in
  Alcotest.(check bool) "stack/stack select unguarded" false
    (Alias.needs_guard al both_stack);
  Alcotest.(check bool) "heap/stack select guarded" true
    (Alias.needs_guard al mixed);
  Alcotest.(check bool) "heap/global select guarded" true
    (Alias.needs_guard al heap_or_global)

let test_alias_loaded_pointer_chain () =
  (* a pointer loaded from memory is Unknown; gep chains off it must
     stay guarded no matter how deep *)
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"f" ~nparams:0 in
  let table = Builder.call b "malloc" [ Ir.Const 128 ] in
  let slot = Builder.gep b table ~index:(Ir.Const 2) ~scale:8 () in
  let indirect = Builder.load b slot in
  let g1 = Builder.gep b indirect ~index:(Ir.Const 1) ~scale:8 () in
  let g2 = Builder.gep b g1 ~index:(Ir.Const 3) ~scale:8 ~offset:4 () in
  ignore (Builder.load b g2);
  Builder.ret b None;
  Verifier.check_module m;
  let al = Alias.analyze (Ir.find_func m "f") in
  Alcotest.(check bool) "loaded pointer guarded" true
    (Alias.needs_guard al indirect);
  Alcotest.(check bool) "gep chain off loaded pointer guarded" true
    (Alias.needs_guard al g2)

let test_alias_needs_guard_per_class () =
  let m = Ir.create_module () in
  Ir.add_global m "g" 8;
  let b = Builder.create m ~name:"f" ~nparams:1 in
  let heap = Builder.call b "malloc" [ Ir.Const 64 ] in
  let stack = Builder.alloca b 8 in
  ignore (Builder.load b heap);
  ignore (Builder.load b stack);
  ignore (Builder.load b (Ir.Sym "g"));
  ignore (Builder.load b (Builder.arg 0));
  Builder.ret b None;
  Verifier.check_module m;
  let al = Alias.analyze (Ir.find_func m "f") in
  let check name v expect =
    Alcotest.(check bool) name expect (Alias.needs_guard al v)
  in
  check "Heap guarded" heap true;
  check "Stack unguarded" stack false;
  check "Global unguarded" (Ir.Sym "g") false;
  check "Arg (Unknown) guarded" (Builder.arg 0) true

let test_profile_trip_counts () =
  let p = Profile.create () in
  Profile.add_block p ~func:"f" ~block:"pre" 10;
  Profile.add_block p ~func:"f" ~block:"hdr" 510;
  (* 10 entries, 510 header executions -> 50 trips/entry *)
  match Profile.avg_trip_count p ~func:"f" ~header:"hdr" ~preheader:"pre" with
  | Some t -> Alcotest.(check (float 1e-9)) "avg trip" 50.0 t
  | None -> Alcotest.fail "expected Some"

let test_profile_never_entered () =
  let p = Profile.create () in
  Alcotest.(check bool) "no entries -> None" true
    (Profile.avg_trip_count p ~func:"f" ~header:"h" ~preheader:"p" = None)

(* -- interprocedural call graph and summaries ------------------------- *)

let test_callgraph_sccs_bottom_up () =
  let m = Ir.create_module () in
  let bh = Builder.create m ~name:"helper" ~nparams:1 in
  Builder.ret bh (Some (Builder.add bh (Builder.arg 0) (Ir.Const 1)));
  let bm = Builder.create m ~name:"main" ~nparams:0 in
  ignore (Builder.call bm "helper" [ Ir.Const 1 ]);
  ignore (Builder.call bm "mystery" []);
  Builder.ret bm None;
  let cg = Callgraph.build m in
  (match Callgraph.sccs cg with
  | [ [ "helper" ]; [ "main" ] ] -> ()
  | sccs ->
      Alcotest.failf "bad SCC order: %s"
        (String.concat "; " (List.map (String.concat ",") sccs)));
  Alcotest.(check bool) "helper not recursive" false
    (Callgraph.is_recursive cg "helper");
  match Callgraph.node cg "main" with
  | Some n ->
      Alcotest.(check (list string)) "defined callees" [ "helper" ] n.callees;
      Alcotest.(check (list string)) "unknown callees" [ "mystery" ]
        n.Callgraph.unknown_callees
  | None -> Alcotest.fail "main missing from call graph"

let test_summary_self_recursion_converges () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"count" ~nparams:1 in
  let base_l = Builder.add_block b "base" in
  let rec_l = Builder.add_block b "rec" in
  let c = Builder.icmp b Ir.Le (Builder.arg 0) (Ir.Const 0) in
  Builder.cbr b c base_l rec_l;
  Builder.set_block b base_l;
  Builder.ret b (Some (Ir.Const 0));
  Builder.set_block b rec_l;
  let r = Builder.call b "count" [ Builder.sub b (Builder.arg 0) (Ir.Const 1) ] in
  Builder.ret b (Some (Builder.add b r (Ir.Const 1)));
  Verifier.check_module m;
  let cg = Callgraph.build m in
  Alcotest.(check bool) "self-recursion detected" true
    (Callgraph.is_recursive cg "count");
  let env = Summary.compute m in
  match Summary.lookup env "count" with
  | Some s ->
      Alcotest.(check bool) "pure recursion is custody-safe" true
        s.Summary.custody_safe;
      Alcotest.(check bool) "not bottom" false (Summary.is_bottom s)
  | None -> Alcotest.fail "no summary for count"

let test_summary_mutual_recursion_sound () =
  (* even/odd pure pair: both custody-safe. A second pair where [g]
     stores through its pointer argument: the effect must propagate to
     [f] around the cycle. *)
  let m = Ir.create_module () in
  let mk name other =
    let b = Builder.create m ~name ~nparams:1 in
    let base_l = Builder.add_block b "base" in
    let rec_l = Builder.add_block b "rec" in
    let c = Builder.icmp b Ir.Le (Builder.arg 0) (Ir.Const 0) in
    Builder.cbr b c base_l rec_l;
    Builder.set_block b base_l;
    Builder.ret b (Some (Ir.Const 0));
    Builder.set_block b rec_l;
    let r =
      Builder.call b other [ Builder.sub b (Builder.arg 0) (Ir.Const 1) ]
    in
    Builder.ret b (Some r)
  in
  mk "even" "odd";
  mk "odd" "even";
  let bf = Builder.create m ~name:"f" ~nparams:1 in
  Builder.ret bf (Some (Builder.call bf "g" [ Builder.arg 0 ]));
  let bg = Builder.create m ~name:"g" ~nparams:1 in
  Builder.store bg (Ir.Const 7) ~ptr:(Builder.arg 0);
  Builder.ret bg (Some (Builder.call bg "f" [ Builder.arg 0 ]));
  Verifier.check_module m;
  let cg = Callgraph.build m in
  Alcotest.(check bool) "mutual recursion detected" true
    (Callgraph.is_recursive cg "even" && Callgraph.is_recursive cg "f");
  let env = Summary.compute m in
  let sum name =
    match Summary.lookup env name with
    | Some s -> s
    | None -> Alcotest.failf "no summary for %s" name
  in
  Alcotest.(check bool) "pure cycle custody-safe" true
    ((sum "even").Summary.custody_safe && (sum "odd").Summary.custody_safe);
  Alcotest.(check bool) "store in cycle poisons both" true
    ((not (sum "f").Summary.custody_safe)
    && not (sum "g").Summary.custody_safe);
  Alcotest.(check bool) "write effect propagates around the cycle" true
    (sum "f").Summary.eff.Summary.writes_heap

let test_summary_unknown_callee_bottom () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"f" ~nparams:1 in
  ignore (Builder.call b "libc_mystery" [ Builder.arg 0 ]);
  Builder.ret b None;
  let env = Summary.compute m in
  match Summary.lookup env "f" with
  | Some s ->
      Alcotest.(check bool) "stuck at bottom" true (Summary.is_bottom s);
      Alcotest.(check bool) "calls_unknown recorded" true
        s.Summary.eff.Summary.calls_unknown;
      Alcotest.(check bool) "argument escapes" true s.Summary.escapes.(0);
      Alcotest.(check int) "lint reports it" 1 (List.length (Summary.lint m env))
  | None -> Alcotest.fail "no summary for f"

let test_summary_wrapper_allocator_and_passthrough () =
  let m = Ir.create_module () in
  let ba = Builder.create m ~name:"alloc8" ~nparams:1 in
  Builder.ret ba
    (Some (Builder.call ba "malloc" [ Builder.mul ba (Builder.arg 0) (Ir.Const 8) ]));
  let bi = Builder.create m ~name:"first_field" ~nparams:1 in
  Builder.ret bi
    (Some (Builder.gep bi (Builder.arg 0) ~index:(Ir.Const 0) ~scale:8 ()));
  let env = Summary.compute m in
  (match Summary.lookup env "alloc8" with
  | Some s ->
      Alcotest.(check bool) "wrapper returns heap" true (s.Summary.ret = Summary.Pheap);
      Alcotest.(check bool) "allocating, hence custody-clobbering" true
        (s.Summary.eff.Summary.allocs && not s.Summary.custody_safe)
  | None -> Alcotest.fail "no summary for alloc8");
  match Summary.lookup env "first_field" with
  | Some s ->
      Alcotest.(check bool) "returns its argument" true
        (s.Summary.ret = Summary.From_arg 0);
      Alcotest.(check bool) "pure" true s.Summary.custody_safe
  | None -> Alcotest.fail "no summary for first_field"

let test_summary_free_escapes_argument () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"dispose" ~nparams:2 in
  ignore (Builder.call b "free" [ Builder.arg 1 ]);
  Builder.ret b None;
  let env = Summary.compute m in
  match Summary.lookup env "dispose" with
  | Some s ->
      Alcotest.(check bool) "freed argument escapes" true s.Summary.escapes.(1);
      Alcotest.(check bool) "unfreed argument does not" false s.Summary.escapes.(0);
      Alcotest.(check bool) "frees + clobbers" true
        (s.Summary.eff.Summary.frees && not s.Summary.custody_safe)
  | None -> Alcotest.fail "no summary for dispose"

let test_alias_uses_summaries () =
  (* a stack pointer laundered through a returns-its-argument helper:
     precise with summaries, conservatively guarded without *)
  let m = Ir.create_module () in
  let bi = Builder.create m ~name:"first_field" ~nparams:1 in
  Builder.ret bi
    (Some (Builder.gep bi (Builder.arg 0) ~index:(Ir.Const 0) ~scale:8 ()));
  let b = Builder.create m ~name:"f" ~nparams:0 in
  let stack = Builder.alloca b 16 in
  let q = Builder.call b "first_field" [ stack ] in
  ignore (Builder.load b q);
  let h = Builder.call b "alloc8" [ Ir.Const 4 ] in
  ignore (Builder.load b h);
  Builder.ret b None;
  let ba = Builder.create m ~name:"alloc8" ~nparams:1 in
  Builder.ret ba
    (Some (Builder.call ba "malloc" [ Builder.mul ba (Builder.arg 0) (Ir.Const 8) ]));
  Verifier.check_module m;
  let f = Ir.find_func m "f" in
  let env = Summary.compute m in
  let with_s = Alias.analyze ~summaries:env f in
  let without = Alias.analyze f in
  Alcotest.(check bool) "stack-through-helper unguarded with summaries" false
    (Alias.needs_guard with_s q);
  Alcotest.(check bool) "guarded without summaries" true
    (Alias.needs_guard without q);
  Alcotest.(check bool) "wrapper-allocator result guarded" true
    (Alias.needs_guard with_s h)

(* -- interprocedural shape analysis ---------------------------------- *)

let reg = function Ir.Reg id -> id | _ -> Alcotest.fail "expected a register"

(* One arena whose slots store pointers back into the same arena at the
   given field offsets: 1 offset = list, 2 = tree, 3 = graph. *)
let self_linked_module offsets =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let arena = Builder.call b "malloc" [ Ir.Const 320 ] in
  Builder.for_loop b ~init:(Ir.Const 0) ~bound:(Ir.Const 9) (fun b k ->
      let src =
        Builder.gep b arena ~index:(Builder.add b k (Ir.Const 1)) ~scale:32 ()
      in
      List.iter
        (fun off ->
          Builder.store b src
            ~ptr:(Builder.gep b arena ~index:k ~scale:32 ~offset:off ()))
        offsets);
  Builder.ret b (Some (Ir.Const 0));
  Verifier.check_module m;
  (m, reg arena)

let test_shape_struct_kinds () =
  let kind_of offsets =
    let m, id = self_linked_module offsets in
    match Shape.site_of (Shape.analyze m) ("main", id) with
    | Some site -> (site.Shape.kind, site.Shape.link_offsets)
    | None -> Alcotest.fail "allocation site not found"
  in
  Alcotest.(check bool) "one link offset = list" true
    (kind_of [ 0 ] = (Shape.List, [ 0 ]));
  Alcotest.(check bool) "two link offsets = tree" true
    (kind_of [ 0; 8 ] = (Shape.Tree, [ 0; 8 ]));
  Alcotest.(check bool) "three link offsets = graph" true
    (kind_of [ 0; 8; 16 ] = (Shape.Graph, [ 0; 8; 16 ]));
  let m, id = self_linked_module [] in
  (* no self-referential stores at all: not a recursive structure *)
  match Shape.site_of (Shape.analyze m) ("main", id) with
  | Some site ->
      Alcotest.(check bool) "no links = scalar" false
        (Shape.kind_is_recursive site.Shape.kind)
  | None -> Alcotest.fail "allocation site not found"

(* A one-load helper plus a traversal loop in main: the helper's load
   must classify pointer-chase only when shape facts fold the caller's
   chain depth into the helper's context. *)
let helper_chase_module () =
  let m = Ir.create_module () in
  let bh = Builder.create m ~name:"node_next" ~nparams:1 in
  Builder.ret bh (Some (Builder.load bh (Builder.arg 0)));
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let arena = Builder.call b "malloc" [ Ir.Const 160 ] in
  Builder.for_loop b ~init:(Ir.Const 0) ~bound:(Ir.Const 9) (fun b k ->
      Builder.store b
        (Builder.gep b arena ~index:(Builder.add b k (Ir.Const 1)) ~scale:16 ())
        ~ptr:(Builder.gep b arena ~index:k ~scale:16 ()));
  let final =
    Builder.while_loop_acc b
      ~accs:[ arena; Ir.Const 0 ]
      ~cond:(fun b ~accs -> Builder.icmp b Ir.Ne (List.hd accs) (Ir.Const 0))
      (fun b ~accs ->
        let cur, n = (List.hd accs, List.nth accs 1) in
        [ Builder.call b "node_next" [ cur ]; Builder.add b n (Ir.Const 1) ])
  in
  Builder.ret b (Some (List.nth final 1));
  Verifier.check_module m;
  m

let test_shape_helper_ret_hops_and_context () =
  let m = helper_chase_module () in
  let env = Shape.analyze m in
  (match Shape.summary env "node_next" with
  | Some s ->
      Alcotest.(check bool) "ret = arg0 after one loaded hop" true
        (s.Shape.ret_hops = Some (0, 1));
      Alcotest.(check bool) "chase-through bit set" true (s.Shape.chases.(0) >= 1)
  | None -> Alcotest.fail "no shape summary for node_next");
  match Shape.context env "node_next" with
  | Some ctx ->
      Alcotest.(check bool) "caller chain depth flows into the parameter" true
        (ctx.Shape.arg_depth.(0) >= 1)
  | None -> Alcotest.fail "no calling context for node_next"

let test_shape_upgrades_helper_classification () =
  let m = helper_chase_module () in
  let summaries = Summary.compute m in
  let shapes = Shape.analyze m in
  let helper = Ir.find_func m "node_next" in
  let cls_of t =
    match Access_pattern.sites t with
    | [ s ] -> s.Access_pattern.cls
    | _ -> Alcotest.fail "expected exactly one may-heap site in node_next"
  in
  Alcotest.(check bool) "unknown without shape facts" true
    (cls_of (Access_pattern.analyze ~summaries helper) = Access_pattern.Unknown);
  let t = Access_pattern.analyze ~summaries ~shapes helper in
  Alcotest.(check bool) "pointer-chase with shape facts" true
    (cls_of t = Access_pattern.Pointer_chase);
  match Access_pattern.sites t with
  | [ s ] ->
      Alcotest.(check bool) "chain depth from the caller" true
        (s.Access_pattern.chain_depth >= 1);
      Alcotest.(check (option string)) "structure kind attached" (Some "list")
        s.Access_pattern.shape
  | _ -> Alcotest.fail "expected exactly one site"

let test_shape_recursive_scc_saturates () =
  (* walk(p) = if p then walk(load p): the chase depth through the
     recursive SCC must saturate at the cap, not oscillate — and the
     whole analysis must be deterministic across reruns. *)
  let build () =
    let m = Ir.create_module () in
    let b = Builder.create m ~name:"walk" ~nparams:1 in
    let p = Builder.arg 0 in
    let base = Builder.add_block b "base" in
    let step = Builder.add_block b "step" in
    Builder.cbr b (Builder.icmp b Ir.Eq p (Ir.Const 0)) base step;
    Builder.set_block b base;
    Builder.ret b (Some (Ir.Const 0));
    Builder.set_block b step;
    Builder.ret b (Some (Builder.call b "walk" [ Builder.load b p ]));
    Verifier.check_module m;
    m
  in
  let m = build () in
  let env = Shape.analyze m in
  (match Shape.summary env "walk" with
  | Some s ->
      Alcotest.(check int) "chase depth saturates at the cap" Shape.depth_cap
        s.Shape.chases.(0)
  | None -> Alcotest.fail "no shape summary for walk");
  Alcotest.(check string) "deterministic across reruns"
    (Shape.dump env m)
    (Shape.dump (Shape.analyze (build ())) (build ()))

let test_shape_mutual_recursion_no_oscillation () =
  let build () =
    let m = Ir.create_module () in
    let bf = Builder.create m ~name:"even_hop" ~nparams:1 in
    Builder.ret bf
      (Some (Builder.call bf "odd_hop" [ Builder.load bf (Builder.arg 0) ]));
    let bg = Builder.create m ~name:"odd_hop" ~nparams:1 in
    Builder.ret bg
      (Some (Builder.call bg "even_hop" [ Builder.load bg (Builder.arg 0) ]));
    Verifier.check_module m;
    m
  in
  let m = build () in
  let env = Shape.analyze m in
  (match (Shape.summary env "even_hop", Shape.summary env "odd_hop") with
  | Some f, Some g ->
      Alcotest.(check int) "even_hop saturated" Shape.depth_cap
        f.Shape.chases.(0);
      Alcotest.(check int) "odd_hop saturated" Shape.depth_cap
        g.Shape.chases.(0)
  | _ -> Alcotest.fail "missing shape summaries");
  Alcotest.(check string) "mutual recursion deterministic"
    (Shape.dump env m)
    (Shape.dump (Shape.analyze (build ())) (build ()))

(* -- access-pattern edge cases --------------------------------------- *)

let test_classify_zero_trip_loop () =
  (* A counted loop whose bound is 0 never runs, but its strided load
     must still classify deterministically from static evidence. *)
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"f" ~nparams:0 in
  let base = Builder.call b "malloc" [ Ir.Const 64 ] in
  let acc =
    Builder.for_loop_acc b ~init:(Ir.Const 0) ~bound:(Ir.Const 0)
      ~accs:[ Ir.Const 0 ]
      (fun b ~iv ~accs ->
        [
          Builder.add b (List.hd accs)
            (Builder.load b (Builder.gep b base ~index:iv ~scale:8 ()));
        ])
  in
  Builder.ret b (Some (List.hd acc));
  Verifier.check_module m;
  let f = Ir.find_func m "f" in
  let t = Access_pattern.analyze ~shapes:(Shape.analyze m) f in
  match Access_pattern.sites t with
  | [ s ] ->
      Alcotest.(check bool) "zero-trip strided load is streaming" true
        (s.Access_pattern.cls = Access_pattern.Streaming);
      Alcotest.(check (option int)) "stride survives" (Some 8)
        s.Access_pattern.stride
  | _ -> Alcotest.fail "expected exactly one site"

let test_classify_phi_address_chain () =
  (* The chased pointer flows through a phi: both arms derive from the
     same loaded pointer, so the chain must survive the merge. *)
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"f" ~nparams:1 in
  let h = Builder.load b (Builder.arg 0) in
  let l = Builder.add_block b "l" in
  let r = Builder.add_block b "r" in
  let join = Builder.add_block b "join" in
  Builder.cbr b (Builder.arg 0) l r;
  Builder.set_block b l;
  let p1 = Builder.gep b h ~index:(Ir.Const 0) ~scale:8 () in
  Builder.br b join;
  Builder.set_block b r;
  let p2 = Builder.gep b h ~index:(Ir.Const 0) ~scale:8 ~offset:8 () in
  Builder.br b join;
  Builder.set_block b join;
  let p = Builder.phi b [ (l, p1); (r, p2) ] in
  let v = Builder.load b p in
  Builder.ret b (Some v);
  Verifier.check_module m;
  let f = Ir.find_func m "f" in
  let t = Access_pattern.analyze f in
  match Access_pattern.site_of t (reg v) with
  | Some s ->
      Alcotest.(check int) "chain survives the phi" 1
        s.Access_pattern.chain_depth;
      Alcotest.(check bool) "classifies pointer-chase" true
        (s.Access_pattern.cls = Access_pattern.Pointer_chase)
  | None -> Alcotest.fail "phi-addressed load not classified"

(* -- summary lint causes ---------------------------------------------- *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_lint_names_direct_unknown () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"f" ~nparams:1 in
  ignore (Builder.call b "libc_mystery" [ Builder.arg 0 ]);
  Builder.ret b None;
  let env = Summary.compute m in
  match Summary.lint m env with
  | [ line ] ->
      Alcotest.(check bool) "names the unknown callee" true
        (contains ~sub:"unknown callee(s): libc_mystery" line)
  | lines -> Alcotest.fail (String.concat "; " lines)

let test_lint_names_opaque_call () =
  let m = Ir.create_module () in
  let bg = Builder.create m ~name:"g" ~nparams:1 in
  ignore (Builder.call bg "libc_mystery" [ Builder.arg 0 ]);
  Builder.ret bg None;
  let bf = Builder.create m ~name:"f" ~nparams:1 in
  ignore (Builder.call bf "g" [ Builder.arg 0 ]);
  Builder.ret bf None;
  let env = Summary.compute m in
  let lines = Summary.lint m env in
  match List.find_opt (fun l -> contains ~sub:"f:" l) lines with
  | Some line ->
      Alcotest.(check bool) "blames the opaque callee by name" true
        (contains ~sub:"opaque call(s): g reaches unknown libc_mystery" line)
  | None -> Alcotest.fail ("no lint line for f: " ^ String.concat "; " lines)

let test_lint_names_recursive_cap () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"spin" ~nparams:1 in
  Builder.ret b (Some (Builder.call b "spin" [ Builder.load b (Builder.arg 0) ]));
  (* round cap 0 forces the SCC fixpoint tripwire: the only bottom cause
     with no unknown callee anywhere in reach *)
  let env = Summary.compute ~max_rounds:0 m in
  match Summary.lint m env with
  | [ line ] ->
      Alcotest.(check bool) "blames the fixpoint round cap" true
        (contains ~sub:"recursive SCC tripped the fixpoint round cap" line)
  | lines -> Alcotest.fail (String.concat "; " lines)

let suite =
  ( "analysis",
    [
      Alcotest.test_case "dominators diamond" `Quick test_dominators_diamond;
      Alcotest.test_case "loop detection" `Quick test_loop_detection;
      Alcotest.test_case "loop nesting" `Quick test_loop_nesting;
      Alcotest.test_case "induction basic" `Quick test_induction_basic;
      Alcotest.test_case "induction invariant offset" `Quick
        test_induction_invariant_offset;
      Alcotest.test_case "induction rejects nonaffine" `Quick
        test_induction_rejects_nonaffine;
      Alcotest.test_case "while loop has no IV" `Quick
        test_induction_while_has_no_governing_iv;
      Alcotest.test_case "alias classes" `Quick test_alias_classes;
      Alcotest.test_case "alias phi join" `Quick test_alias_phi_join;
      Alcotest.test_case "alias select join" `Quick test_alias_select_join;
      Alcotest.test_case "alias loaded pointer chain" `Quick
        test_alias_loaded_pointer_chain;
      Alcotest.test_case "alias needs_guard per class" `Quick
        test_alias_needs_guard_per_class;
      Alcotest.test_case "profile trips" `Quick test_profile_trip_counts;
      Alcotest.test_case "profile empty" `Quick test_profile_never_entered;
      Alcotest.test_case "callgraph SCCs bottom-up" `Quick
        test_callgraph_sccs_bottom_up;
      Alcotest.test_case "summary self-recursion converges" `Quick
        test_summary_self_recursion_converges;
      Alcotest.test_case "summary mutual recursion sound" `Quick
        test_summary_mutual_recursion_sound;
      Alcotest.test_case "summary unknown callee bottom" `Quick
        test_summary_unknown_callee_bottom;
      Alcotest.test_case "summary wrapper allocator and passthrough" `Quick
        test_summary_wrapper_allocator_and_passthrough;
      Alcotest.test_case "summary free escapes argument" `Quick
        test_summary_free_escapes_argument;
      Alcotest.test_case "alias uses summaries" `Quick test_alias_uses_summaries;
      Alcotest.test_case "shape struct kinds" `Quick test_shape_struct_kinds;
      Alcotest.test_case "shape helper ret-hops + context" `Quick
        test_shape_helper_ret_hops_and_context;
      Alcotest.test_case "shape upgrades helper classification" `Quick
        test_shape_upgrades_helper_classification;
      Alcotest.test_case "shape recursive SCC saturates" `Quick
        test_shape_recursive_scc_saturates;
      Alcotest.test_case "shape mutual recursion stable" `Quick
        test_shape_mutual_recursion_no_oscillation;
      Alcotest.test_case "classify zero-trip loop" `Quick
        test_classify_zero_trip_loop;
      Alcotest.test_case "classify phi address chain" `Quick
        test_classify_phi_address_chain;
      Alcotest.test_case "lint names direct unknown" `Quick
        test_lint_names_direct_unknown;
      Alcotest.test_case "lint names opaque call" `Quick
        test_lint_names_opaque_call;
      Alcotest.test_case "lint names recursive cap" `Quick
        test_lint_names_recursive_cap;
    ] )
