type config = {
  object_size : int;
  chunk_mode : Chunk_pass.mode;
  profile : Profile.t option;
  cost : Cost_model.t;
  elide : bool;
  summaries : bool;
  shapes : bool;
  route : Route_pass.mode;
  route_hotspots : (string * int) list;
  check : bool;
  dump_after : (string -> Ir.modul -> unit) option;
}

let default_config =
  {
    object_size = 4096;
    chunk_mode = `Gated;
    profile = None;
    cost = Cost_model.default;
    elide = true;
    summaries = true;
    shapes = true;
    route = `Off;
    route_hotspots = [];
    check = true;
    dump_after = None;
  }

type report = {
  guards : Guard_pass.report;
  chunks : Chunk_pass.report;
  elision : Elide_pass.report;
  routing : Route_pass.report;
  libc_rewrites : int;
  init_inserted : bool;
  ir_instrs_before : int;
  ir_instrs_after : int;
  lowered_size_before : int;
  lowered_size_after : int;
  compile_time_s : float;
}

let run config (m : Ir.modul) =
  let t0 = Sys.time () in
  let ir_instrs_before = Ir.module_instr_count m in
  let lowered_size_before = Lowering.module_size m in
  let dump name =
    match config.dump_after with Some f -> f name m | None -> ()
  in
  (* A stage must leave well-formed IR; the dump hook sees it after. *)
  let stage_done name =
    Verifier.check_module m;
    dump name
  in
  (* The checker's re-proofs: coverage always, plus the elision witnesses
     and the routing decisions when given. *)
  let enforce ?witnesses ?routes () =
    if config.check then
      Tfm_checker.Coverage.enforce ~summaries:config.summaries ?witnesses
        ?routes m
  in
  Verifier.check_module m;
  let init_inserted = Init_pass.run m in
  stage_done "runtime-init";
  let chunks =
    Chunk_pass.run config.cost ~object_size:config.object_size
      ~mode:config.chunk_mode ?profile:config.profile m
  in
  stage_done "loop-chunking";
  (* Interprocedural summaries are computed after chunking (so chunk
     protocol calls are in the text the analysis sees) and handed to the
     guard injector and the elision pass. The checker never reuses this
     environment: it recomputes its own. *)
  let senv =
    if config.summaries then Some (Tfm_analysis.Summary.compute m) else None
  in
  dump "summaries";
  let guards =
    Guard_pass.run ?summaries:senv ~exclude:chunks.Chunk_pass.covered m
  in
  stage_done "guard-transform";
  let elision =
    if config.elide then begin
      let e =
        Elide_pass.run ?summaries:senv ~object_size:config.object_size m
      in
      stage_done "guard-elision";
      e
    end
    else Elide_pass.empty
  in
  let witnesses = elision.Elide_pass.elisions in
  (* The checker proves every may-heap access is still covered after the
     optimizer ran, and independently re-verifies each deletion's
     witness record — with its own summaries and its own module-level
     custody re-derivation, so a bug in [senv] cannot vouch for itself.
     A transform bug fails compilation here instead of becoming a
     silent far-memory crash. *)
  enforce ~witnesses ();
  (* Hybrid routing runs after elision and its witness re-check: hoisting
     has already moved guards to their final places, so the dataflow the
     route pass consults matches what the checker will re-prove. Guards
     that anchor elision witnesses are pinned — rewriting one would
     orphan the record it certifies. *)
  let routing =
    if config.route = `Off then Route_pass.empty
    else begin
      let pinned =
        List.concat_map
          (fun (fname, (e : Tfm_checker.Coverage.elision)) ->
            List.map (fun w -> (fname, w)) e.Tfm_checker.Coverage.witness_ids)
          witnesses
      in
      (* Shape facts are computed here — after elision froze the guard
         placement — and handed only to the route pass. The checker's
         re-proofs below never see them: a wrong shape verdict can
         misroute a site (both mechanisms are sound) but cannot unprove
         coverage; the interp shadow validator audits the verdicts
         dynamically instead. *)
      let shenv =
        if config.shapes then Some (Tfm_analysis.Shape.analyze m) else None
      in
      let r =
        Route_pass.run ?summaries:senv ?shapes:shenv ~pinned
          ~hotspots:config.route_hotspots ~mode:config.route m
      in
      stage_done "hybrid-routing";
      enforce ~witnesses ~routes:r.Route_pass.routes ();
      r
    end
  in
  let libc_rewrites = Libc_pass.run m in
  stage_done "libc-transform";
  enforce ~routes:routing.Route_pass.routes ();
  {
    guards;
    chunks;
    elision;
    routing;
    libc_rewrites;
    init_inserted;
    ir_instrs_before;
    ir_instrs_after = Ir.module_instr_count m;
    lowered_size_before;
    lowered_size_after = Lowering.module_size m;
    compile_time_s = Sys.time () -. t0;
  }

let code_growth r =
  float_of_int r.lowered_size_after /. float_of_int (max 1 r.lowered_size_before)
