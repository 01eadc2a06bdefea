(* Compiler explorer: watch the TrackFM pipeline transform a program.

   Prints the IR of a small loop before and after the passes, the alias
   classification that decides which accesses need guards, the detected
   induction variables and strided accesses, and the cost-model verdict
   for each chunking candidate.

   Run with: dune exec examples/compiler_explorer.exe *)

let build () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let heap = Builder.call b "malloc" [ Ir.Const 65536 ] in
  let stack = Builder.alloca b 16 in
  (* a dense loop (chunking pays) ... *)
  let sums =
    Builder.for_loop_acc b ~hint:"dense" ~init:(Ir.Const 0)
      ~bound:(Ir.Const 8192) ~accs:[ Ir.Const 0 ]
      (fun b ~iv:i ~accs ->
        let v = Builder.load b ~size:8 (Builder.gep b heap ~index:i ~scale:8 ()) in
        [ Builder.add b (List.hd accs) v ])
  in
  (* ... a short loop (chunking cannot amortize) ... *)
  Builder.for_loop b ~hint:"short" ~init:(Ir.Const 0) ~bound:(Ir.Const 4)
    (fun b i ->
      let p = Builder.gep b heap ~index:i ~scale:8 () in
      let v = Builder.load b ~size:8 p in
      Builder.store b (Builder.add b v (Ir.Const 1)) ~ptr:p);
  (* ... and a stack access that needs no guard at all. *)
  Builder.store b (List.hd sums) ~ptr:stack;
  Builder.ret b (Some (Builder.load b stack));
  Verifier.check_module m;
  m

let () =
  let m = build () in
  Printf.printf "=== IR before TrackFM ===\n%s\n" (Printer.module_to_string m);

  (* The analyses the passes are built on. *)
  let f = Ir.find_func m "main" in
  let alias = Alias.analyze f in
  Printf.printf "=== alias classification (guard eligibility) ===\n";
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          match i.kind with
          | Ir.Load { ptr; _ } | Ir.Store { ptr; _ } ->
              Format.printf "  %a: pointer class %a -> %s@." Printer.pp_instr i
                Alias.pp_cls (Alias.classify alias ptr)
                (if Alias.needs_guard alias ptr then "GUARD" else "skip")
          | _ -> ())
        b.instrs)
    f.blocks;

  let ind = Induction.analyze f in
  Printf.printf "\n=== loops and induction variables ===\n";
  List.iter
    (fun (l : Loops.loop) ->
      Printf.printf "  loop %s (depth %d): %d IV(s), %d strided access(es)\n"
        l.Loops.header l.Loops.depth
        (List.length (Induction.ivs_of_loop ind l))
        (List.length (Induction.strided_accesses ind l)))
    (Loops.loops (Induction.loops ind));

  (* Run the full pipeline with a profile so the gate has trip counts. *)
  let profile = Workloads.Driver.profile_of build in
  let m = build () in
  let config =
    { Trackfm.Pipeline.default_config with profile = Some profile }
  in
  let report = Trackfm.Pipeline.run config m in
  Printf.printf "\n=== chunking candidates and the cost-model verdict ===\n";
  List.iter
    (fun (c : Trackfm.Chunk_pass.candidate) ->
      Printf.printf
        "  loop %s: stride %dB, density %d, avg trip %s -> %s\n"
        c.Trackfm.Chunk_pass.header c.Trackfm.Chunk_pass.byte_stride
        c.Trackfm.Chunk_pass.density
        (match c.Trackfm.Chunk_pass.avg_trip with
        | Some t -> Printf.sprintf "%.0f" t
        | None -> "unknown")
        (if c.Trackfm.Chunk_pass.selected then "CHUNK" else "keep guards"))
    report.Trackfm.Pipeline.chunks.Trackfm.Chunk_pass.candidates;
  Printf.printf
    "\nguards injected: %d loads, %d stores; skipped %d non-heap accesses\n"
    report.Trackfm.Pipeline.guards.Trackfm.Guard_pass.guarded_loads
    report.Trackfm.Pipeline.guards.Trackfm.Guard_pass.guarded_stores
    report.Trackfm.Pipeline.guards.Trackfm.Guard_pass.skipped_non_heap;
  Printf.printf "\n=== IR after TrackFM ===\n%s" (Printer.module_to_string m)
