(* Dataflow-driven redundant-guard elimination and loop-invariant guard
   hoisting — the first optimization the guard-coverage checker licenses
   (paper Sections 3.1/3.3: the compiler analyses are what make guarded
   far memory cheap; a guard dominated by an equivalent guard with no
   eviction point between them is pure overhead).

   Four rewrites, all justified by the same must-available custody facts
   the checker verifies with ({!Tfm_checker.Facts}):

   - Same-pointer elision: delete a guard whose bytes are already in
     custody at its program point (dominating guard on the same SSA
     pointer, no clobber between).
   - Congruent-slot widening: two guards on geps that differ only in the
     constant field offset (same base and index registers) are merged by
     widening the dominating guard's size to span both fields, then
     deleting the dominated one. The widened span is capped at the
     object size, so the runtime still localizes at most the two objects
     it already handles for straddling accesses.
   - Strength upgrade: a write guard covered by read custody promotes
     the covering read guards to write guards (the read-modify-write
     idiom: load x; store f(x) through the same pointer needs one write
     guard, not a read and a write). Upgrading marks dirty earlier,
     which is semantically conservative.
   - Loop-invariant hoisting: a guard on a loop-invariant pointer inside
     a clobber-free loop body moves to the preheader — one custody check
     per loop entry instead of one per iteration. Speculative execution
     of a guard is safe: on a pointer the runtime does not track it is a
     custody skip, otherwise it localizes an object the loop was going
     to touch anyway.

   Every deleted guard leaves a witness record (which access lost its
   private guard, under which rule, vouched for by which surviving guard
   sites); the pipeline hands those records back to the checker, which
   re-verifies them through dominators and loop structure — machinery
   independent of the dataflow that licensed the deletion. *)

module F = Tfm_checker.Facts
module C = Tfm_checker.Coverage

type report = {
  elided_same : int;
  elided_congruent : int;
  elided_range : int;
  upgraded : int;  (* read guards promoted to write guards *)
  widened : int;  (* guards whose span grew to absorb a neighbour *)
  hoisted : int;  (* guards moved to loop preheaders *)
  elisions : (string * C.elision) list;
}

let empty =
  {
    elided_same = 0;
    elided_congruent = 0;
    elided_range = 0;
    upgraded = 0;
    widened = 0;
    hoisted = 0;
    elisions = [];
  }

let total_elided r = r.elided_same + r.elided_congruent + r.elided_range

type counters = {
  mutable same : int;
  mutable congruent : int;
  mutable range : int;
  mutable ups : int;
  mutable wides : int;
  mutable hoists : int;
  mutable records : (string * C.elision) list;
}

let guard_parts (i : Ir.instr) =
  match i.kind with
  | Ir.Call { callee; args = [ ptr; Ir.Const size ] }
    when Intrinsics.is_guard callee ->
      Some (callee = Intrinsics.guard_write, ptr, size)
  | _ -> None

(* The access a guard protects: the next load/store through the same
   pointer in its block (the injector places guards immediately before
   their access, so this is the adjacent instruction in practice). *)
let find_access ptr rest ~fallback =
  match
    List.find_opt
      (fun (j : Ir.instr) ->
        match j.kind with
        | Ir.Load { ptr = p; _ } | Ir.Store { ptr = p; _ } -> p = ptr
        | _ -> false)
      rest
  with
  | Some j -> j.id
  | None -> fallback

(* -- loop-invariant hoisting -------------------------------------------- *)

let hoist_func ?summaries (cnt : counters) ind =
  let f = Tfm_analysis.Induction.func ind in
  let body_clobber_free (loop : Loops.loop) =
    List.for_all
      (fun lbl ->
        let b = Ir.find_block f lbl in
        List.for_all
          (fun (i : Ir.instr) ->
            match i.kind with
            | Ir.Call { callee; _ } ->
                not (Tfm_analysis.Summary.call_clobbers ?env:summaries callee)
            | _ -> true)
          b.instrs)
      loop.body
  in
  (* Innermost first: a guard hoisted to an inner preheader can move
     again when it is invariant in the enclosing loop too. *)
  let loops =
    List.sort
      (fun (a : Loops.loop) b -> compare b.depth a.depth)
      (Loops.loops (Tfm_analysis.Induction.loops ind))
  in
  List.iter
    (fun (loop : Loops.loop) ->
      match loop.preheader with
      | Some ph when body_clobber_free loop ->
          (* Collect in-body guards on loop-invariant pointers, with the
             access each protects (looked up before any mutation). *)
          let candidates = ref [] in
          List.iter
            (fun lbl ->
              let b = Ir.find_block f lbl in
              let rec scan = function
                | [] -> ()
                | (i : Ir.instr) :: rest ->
                    begin
                      match guard_parts i with
                      | Some (write, ptr, size)
                        when Tfm_analysis.Induction.is_loop_invariant ind
                               loop ptr ->
                          candidates :=
                            ( ptr,
                              (i, write, size,
                               find_access ptr rest ~fallback:i.id) )
                            :: !candidates
                      | _ -> ()
                    end;
                    scan rest
              in
              scan b.instrs)
            loop.body;
          (* Group by pointer value; one hoisted guard per pointer with
             the union strength and span. *)
          let groups = Hashtbl.create 8 in
          List.iter
            (fun (ptr, g) ->
              let cur =
                Option.value ~default:[] (Hashtbl.find_opt groups ptr)
              in
              Hashtbl.replace groups ptr (g :: cur))
            (List.rev !candidates);
          Hashtbl.iter
            (fun ptr group ->
              let rep, _, _, _ =
                List.hd group
              in
              let write = List.exists (fun (_, w, _, _) -> w) group in
              let size =
                List.fold_left (fun m (_, _, s, _) -> max m s) 1 group
              in
              let ids =
                List.map (fun ((i : Ir.instr), _, _, _) -> i.id) group
              in
              (* Remove every group member from the body... *)
              List.iter
                (fun lbl ->
                  let b = Ir.find_block f lbl in
                  b.instrs <-
                    List.filter
                      (fun (i : Ir.instr) -> not (List.mem i.id ids))
                      b.instrs)
                loop.body;
              (* ...and re-emit the representative in the preheader with
                 the group's combined strength and span. *)
              let hoisted =
                {
                  rep with
                  kind =
                    Ir.Call
                      {
                        callee =
                          (if write then Intrinsics.guard_write
                           else Intrinsics.guard_read);
                        args = [ ptr; Ir.Const size ];
                      };
                }
              in
              let phb = Ir.find_block f ph in
              phb.instrs <- phb.instrs @ [ hoisted ];
              cnt.hoists <- cnt.hoists + 1;
              List.iter
                (fun ((i : Ir.instr), _, _, access) ->
                  let rule = if i.id = rep.id then C.Hoist else C.Same in
                  if i.id <> rep.id then cnt.same <- cnt.same + 1;
                  cnt.records <-
                    (f.fname, { C.access; rule; witness_ids = [ rep.id ] })
                    :: cnt.records)
                group)
            groups
      | _ -> ())
    loops

(* -- dataflow-driven elision sweep -------------------------------------- *)

let rule_of t ptr size (hit : F.hit) =
  if hit.anchor = F.Val ptr && hit.delta_lo = 0 then C.Same
  else if
    List.exists
      (fun (a, d) ->
        a = hit.anchor && d = hit.delta_lo && hit.delta_hi = d + size)
      (F.anchors_of t ptr)
  then C.Congruent
  else C.Range

let sweep_func ?summaries ~object_size (cnt : counters) ind =
  let f = Tfm_analysis.Induction.func ind in
  let t = F.analyze ?summaries ind in
  (* A guard that vouches for an earlier deletion is pinned: deleting it
     too would orphan the witness record (and the re-check would rightly
     reject it). Seed from records of previous rounds and the hoist
     phase, extend as this sweep adds records. *)
  let pinned = Hashtbl.create 16 in
  List.iter
    (fun (fname, (e : C.elision)) ->
      if fname = f.fname then
        List.iter (fun wid -> Hashtbl.replace pinned wid ()) e.witness_ids)
    cnt.records;
  let instr_by_id = Hashtbl.create 64 in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) -> Hashtbl.replace instr_by_id i.id i)
        b.instrs)
    f.blocks;
  let deleted = Hashtbl.create 16 in
  let alive id = not (Hashtbl.mem deleted id) in
  let plain_guard id =
    match Hashtbl.find_opt instr_by_id id with
    | Some { Ir.kind = Ir.Call { callee; _ }; _ } -> Intrinsics.is_guard callee
    | _ -> false
  in
  let set_guard (i : Ir.instr) ~callee ~size =
    match i.kind with
    | Ir.Call { args = [ ptr; _ ]; _ } ->
        i.kind <- Ir.Call { callee; args = [ ptr; Ir.Const size ] }
    | _ -> ()
  in
  let guard_callee (i : Ir.instr) =
    match i.kind with Ir.Call { callee; _ } -> callee | _ -> ""
  in
  let changed = ref false in
  List.iter
    (fun (b : Ir.block) ->
      let state = ref (F.in_state t b.label) in
      let rec go acc = function
        | [] -> List.rev acc
        | (i : Ir.instr) :: rest ->
            let keep = ref true in
            begin
              match guard_parts i with
              | Some (write, ptr, size) when not (Hashtbl.mem pinned i.id)
                -> begin
                  match
                    F.query ~alive t !state ~block:b.label ptr ~size ~write
                  with
                  | Some hit ->
                      (* Fully covered per the dataflow. Before deleting,
                         re-prove the witness certificate with the
                         checker's own dominator/loop machinery: a fact
                         that is must-available only through a multi-path
                         join has witnesses that cover their own paths
                         but individually dominate nothing, and the
                         final witness re-check would rightly reject
                         them. Such guards stay. *)
                      let rule = rule_of t ptr size hit in
                      let witness_ids =
                        F.Int_set.elements hit.covering.witnesses
                      in
                      let record =
                        {
                          C.access = find_access ptr rest ~fallback:i.id;
                          rule;
                          witness_ids;
                        }
                      in
                      (* Pre-validate with a predicate derived from the
                         same summaries that licensed the fact (the
                         producer trusts its own analysis here), over the
                         fixpoint's own structure, which is still exact
                         (see [run]). The pipeline's final re-check
                         builds its own, with the checker's independent
                         module-level re-derivation. *)
                      let certificate_holds =
                        C.check_witnesses_func
                          ~call_clobbers:(fun callee ->
                            Tfm_analysis.Summary.call_clobbers ?env:summaries
                              callee)
                          ind [ record ]
                        = []
                      in
                      if certificate_holds then begin
                        begin
                          match rule with
                          | C.Same -> cnt.same <- cnt.same + 1
                          | C.Congruent ->
                              cnt.congruent <- cnt.congruent + 1
                          | C.Range | C.Hoist -> cnt.range <- cnt.range + 1
                        end;
                        List.iter
                          (fun wid -> Hashtbl.replace pinned wid ())
                          witness_ids;
                        cnt.records <- (f.fname, record) :: cnt.records;
                        Hashtbl.replace deleted i.id ();
                        keep := false;
                        changed := true
                      end
                  | None ->
                      (* Not covered outright. Two witness-strengthening
                         rewrites can make it coverable on the next
                         sweep: promote read custody to write custody,
                         or widen a same-slot guard's span. *)
                      let upgraded_now =
                        if not write then false
                        else
                          match
                            F.query ~alive t !state ~block:b.label ptr ~size
                              ~write:false
                          with
                          | Some hit
                            when F.Int_set.for_all plain_guard
                                   hit.covering.witnesses ->
                              F.Int_set.iter
                                (fun wid ->
                                  let w = Hashtbl.find instr_by_id wid in
                                  if
                                    guard_callee w = Intrinsics.guard_read
                                  then begin
                                    (match w.kind with
                                    | Ir.Call { args; _ } ->
                                        w.kind <-
                                          Ir.Call
                                            {
                                              callee = Intrinsics.guard_write;
                                              args;
                                            }
                                    | _ -> ());
                                    cnt.ups <- cnt.ups + 1
                                  end)
                                hit.covering.witnesses;
                              changed := true;
                              true
                          | _ -> false
                      in
                      if not upgraded_now then begin
                        (* Widening: a single-witness guard fact on one of
                           this pointer's anchors that starts at or below
                           our bytes can grow to span them, as long as the
                           union stays within one object size. The guard
                           itself goes on the next sweep, once the fresh
                           fixpoint sees the widened witness. *)
                        let widened_now = ref false in
                        List.iter
                          (fun (anchor, delta) ->
                            List.iter
                              (fun (fact : F.fact) ->
                                if
                                  (not !widened_now)
                                  && F.Int_set.cardinal fact.witnesses = 1
                                  && fact.lo <= delta
                                  && fact.hi < delta + size
                                  && delta + size - fact.lo <= object_size
                                then
                                  let wid = F.Int_set.choose fact.witnesses in
                                  if alive wid && plain_guard wid then begin
                                    let w = Hashtbl.find instr_by_id wid in
                                    let cur_size =
                                      match w.kind with
                                      | Ir.Call
                                          { args = [ _; Ir.Const s ]; _ } ->
                                          s
                                      | _ -> 1
                                    in
                                    let callee =
                                      if
                                        write
                                        || guard_callee w
                                           = Intrinsics.guard_write
                                      then Intrinsics.guard_write
                                      else Intrinsics.guard_read
                                    in
                                    if
                                      write
                                      && guard_callee w
                                         = Intrinsics.guard_read
                                    then cnt.ups <- cnt.ups + 1;
                                    set_guard w ~callee
                                      ~size:
                                        (max cur_size
                                           (delta + size - fact.lo));
                                    cnt.wides <- cnt.wides + 1;
                                    widened_now := true;
                                    changed := true
                                  end)
                              (F.facts_at !state anchor))
                          (F.anchors_of t ptr)
                      end
                end
              | Some _ | None -> ()
            end;
            if !keep then begin
              state := F.apply_instr t !state i;
              go (i :: acc) rest
            end
            else go acc rest
      in
      b.instrs <- go [] b.instrs)
    f.blocks;
  !changed

let run ?summaries ~object_size (m : Ir.modul) =
  let cnt =
    {
      same = 0;
      congruent = 0;
      range = 0;
      ups = 0;
      wides = 0;
      hoists = 0;
      records = [];
    }
  in
  List.iter
    (fun f ->
      (* One structure serves the hoist and every sweep: both only move,
         delete, widen or upgrade guard calls, whose results nothing
         uses, so no block, terminator or value definition changes
         under it. *)
      let ind = Tfm_analysis.Induction.analyze f in
      hoist_func ?summaries cnt ind;
      (* Witness-strengthening rewrites (upgrade/widen) only pay off on
         the following sweep's fresh fixpoint, so iterate; two rounds
         settle the common patterns, the third is a safety net. *)
      let rec rounds n =
        if n > 0 && sweep_func ?summaries ~object_size cnt ind then
          rounds (n - 1)
      in
      rounds 3)
    m.funcs;
  {
    elided_same = cnt.same;
    elided_congruent = cnt.congruent;
    elided_range = cnt.range;
    upgraded = cnt.ups;
    widened = cnt.wides;
    hoisted = cnt.hoists;
    elisions = List.rev cnt.records;
  }
