(* The guard-coverage verifier: a sanitizer for transformed IR.

   For every load/store the alias analysis classifies may-heap, prove it
   is covered by **exactly one** protection mechanism: either an
   available custody fact — a guard (or chunk access) on the same bytes
   dominates it with no intervening clobber — or an adjacent page-path
   call (the hybrid data plane's fault-in, which covers exactly the one
   access it precedes). No mechanism is a gap; both at once is double
   protection (the route pass failed to retire the guard, or a guard
   from elsewhere still reaches a paged site). Either way the pipeline
   raises, CI goes red, and the offending site is named in guard-site
   attribution form so it can be cross-referenced against the telemetry
   hotspot table. *)

type flaw =
  | Gap  (** covered by no mechanism at all *)
  | Double of int
      (** custody-covered AND paged; carries the page call's id *)

type violation = {
  func : string;
  block : string;
  instr : int;  (* the offending access *)
  is_store : bool;
  flaw : flaw;
  killer : int option;
      (* id of the closest preceding custody clobber in the block, when
         one exists — the call that ate the guard, if there was one *)
}

let violation_site v = { Telemetry.Site.func = v.func; instr = v.instr }

(* Every fragment names its enclosing function: multi-function modules
   put the same instruction ids in several functions, so an unqualified
   "%12" is ambiguous exactly when you need it. *)
let violation_to_string v =
  match v.flaw with
  | Gap ->
      Printf.sprintf
        "%s/%s: may-heap %s at %s not covered by any guard or page call%s"
        v.func v.block
        (if v.is_store then "store" else "load")
        (Telemetry.Site.key_to_string (violation_site v))
        (match v.killer with
        | None -> ""
        | Some k -> Printf.sprintf " (custody killed by call %s:%%%d)" v.func k)
  | Double page ->
      Printf.sprintf
        "%s/%s: may-heap %s at %s is double-protected: paged by %%%d while a \
         custody fact still covers it"
        v.func v.block
        (if v.is_store then "store" else "load")
        (Telemetry.Site.key_to_string (violation_site v))
        page

(* The page call covering an access must be the textually previous
   instruction on the exact same pointer value (the shape the route pass
   produces by rewriting the access's private guard in place): page
   coverage is deliberately not a dataflow fact, so it can never leak to
   a second access. A write-flavored page covers both a load and a
   store; a read-flavored one covers only a load. *)
let page_covers pending ~ptr ~size ~is_store =
  match pending with
  | Some (pid, pptr, psz, pwrite)
    when pptr = ptr && psz >= size && ((not is_store) || pwrite) ->
      Some pid
  | _ -> None

let check_func ?summaries ind =
  let f = Induction.func ind in
  let t = Facts.analyze ?summaries ind in
  let alias = Alias.analyze ?summaries f in
  let violations = ref [] in
  List.iter
    (fun (b : Ir.block) ->
      let state = ref (Facts.in_state t b.label) in
      let last_clobber = ref None in
      let pending_page = ref None in
      List.iter
        (fun (i : Ir.instr) ->
          let check ~ptr ~size ~is_store =
            let custody =
              Facts.query t !state ~block:b.label ptr ~size ~write:is_store
              <> None
            in
            let paged = page_covers !pending_page ~ptr ~size ~is_store in
            match (custody, paged) with
            | true, None | false, Some _ -> ()
            | true, Some pid ->
                violations :=
                  {
                    func = f.fname;
                    block = b.label;
                    instr = i.id;
                    is_store;
                    flaw = Double pid;
                    killer = None;
                  }
                  :: !violations
            | false, None ->
                violations :=
                  {
                    func = f.fname;
                    block = b.label;
                    instr = i.id;
                    is_store;
                    flaw = Gap;
                    killer = !last_clobber;
                  }
                  :: !violations
          in
          begin
            match i.kind with
            | Ir.Call { callee; _ }
              when Summary.call_clobbers ?env:summaries callee ->
                last_clobber := Some i.id
            | Ir.Load { ptr; size; _ } when Alias.needs_guard alias ptr ->
                check ~ptr ~size ~is_store:false
            | Ir.Store { ptr; size; _ } when Alias.needs_guard alias ptr ->
                check ~ptr ~size ~is_store:true
            | _ -> ()
          end;
          state := Facts.apply_instr t !state i;
          pending_page :=
            (match i.kind with
            | Ir.Call { callee; args = [ ptr; Ir.Const sz ] }
              when Intrinsics.is_page callee -> (
                match Intrinsics.classify callee with
                | Intrinsics.Page { write } -> Some (i.id, ptr, sz, write)
                | _ -> None)
            | _ -> None))
        b.instrs)
    f.blocks;
  List.rev !violations

(* Independent custody re-derivation for the witness checker: a direct
   reachability pass over the module, sharing no code with
   {!Summary.compute}. A defined callee clobbers custody if its call
   tree can reach a store, an allocation/free, a chunk release, or a
   write guard/chunk access, or if it escapes the module. Cycles are
   resolved by dirty-propagation to a fixpoint: a recursive clique is
   clean unless some member actually contains a clobbering
   instruction. *)
let module_call_clobbers (m : Ir.modul) =
  let defined = Hashtbl.create 16 in
  List.iter (fun (f : Ir.func) -> Hashtbl.replace defined f.Ir.fname f) m.funcs;
  let dirty = Hashtbl.create 16 in
  let callers = Hashtbl.create 16 in
  let locally_dirty (f : Ir.func) =
    List.exists
      (fun (b : Ir.block) ->
        List.exists
          (fun (i : Ir.instr) ->
            match i.kind with
            | Ir.Store _ -> true
            | Ir.Call { callee; _ } -> begin
                match Intrinsics.classify callee with
                | Intrinsics.Alloc | Intrinsics.Free | Intrinsics.Chunk_end ->
                    true
                | Intrinsics.Guard { write }
                | Intrinsics.Chunk_access { write }
                | Intrinsics.Page { write } ->
                    write
                | Intrinsics.Neutral -> false
                | Intrinsics.Unknown -> not (Hashtbl.mem defined callee)
              end
            | _ -> false)
          b.instrs)
      f.blocks
  in
  List.iter
    (fun (f : Ir.func) ->
      List.iter
        (fun (b : Ir.block) ->
          List.iter
            (fun (i : Ir.instr) ->
              match i.kind with
              | Ir.Call { callee; _ }
                when Intrinsics.classify callee = Intrinsics.Unknown
                     && Hashtbl.mem defined callee ->
                  Hashtbl.add callers callee f.Ir.fname
              | _ -> ())
            b.instrs)
        f.blocks)
    m.funcs;
  let worklist = Queue.create () in
  List.iter
    (fun (f : Ir.func) ->
      if locally_dirty f then begin
        Hashtbl.replace dirty f.Ir.fname ();
        Queue.push f.Ir.fname worklist
      end)
    m.funcs;
  while not (Queue.is_empty worklist) do
    let name = Queue.pop worklist in
    List.iter
      (fun caller ->
        if not (Hashtbl.mem dirty caller) then begin
          Hashtbl.replace dirty caller ();
          Queue.push caller worklist
        end)
      (Hashtbl.find_all callers name)
  done;
  fun callee ->
    match Intrinsics.classify callee with
    | Intrinsics.Unknown ->
        if Hashtbl.mem defined callee then Hashtbl.mem dirty callee else true
    | _ -> Intrinsics.clobbers_custody callee

(* -- elision witnesses -------------------------------------------------- *)

(* Every guard the elision pass removes leaves a witness record: which
   access lost its private guard, under which rule, justified by which
   surviving guard sites. The verifier re-checks these records through
   the dominator tree and loop structure — machinery independent of the
   dataflow fixpoint that licensed the elision — so a bug in the
   optimizer's lattice cannot silently vouch for itself. *)

type rule = Same | Congruent | Range | Hoist

type elision = { access : int; rule : rule; witness_ids : int list }

let rule_to_string = function
  | Same -> "same-pointer"
  | Congruent -> "congruent-slot"
  | Range -> "loop-range"
  | Hoist -> "hoisted"

(* Where each instruction of [f] sits now: id -> (block, index, instr). *)
let positions (f : Ir.func) =
  let where = Hashtbl.create 64 in
  List.iter
    (fun (b : Ir.block) ->
      List.iteri
        (fun pos (i : Ir.instr) -> Hashtbl.replace where i.id (b.label, pos, i))
        b.instrs)
    f.blocks;
  where

let records_of (f : Ir.func) records =
  List.filter_map
    (fun (fname, r) -> if fname = f.fname then Some r else None)
    records

(* Dominators, loops, def-use and induction variables come from [ind];
   instruction positions are read from its function on every call, since
   the elision pass checks against a structure built before its hoists
   and deletions. *)
let check_witnesses_func ~call_clobbers ind (els : elision list) =
  let f = Induction.func ind in
  let errors = ref [] in
  let err access fmt =
    Format.kasprintf
      (fun s ->
        errors :=
          Printf.sprintf "%s: bad elision witness for access %s: %s" f.fname
            (Telemetry.Site.key_to_string
               { Telemetry.Site.func = f.fname; instr = access })
            s
          :: !errors)
      fmt
  in
  let where = positions f in
  let loop_info = Induction.loops ind in
  let dom = Loops.dominators loop_info in
  let du = Induction.du ind in
  let clobbers (i : Ir.instr) =
    match i.kind with Ir.Call { callee; _ } -> call_clobbers callee | _ -> false
  in
  let clobbers_between ~from_block ~from_pos ~to_block ~to_pos =
    (* Scan the dominator chain from the access up to the witness: the
       tail of the witness block, all chain blocks strictly between, and
       the access block's prefix. Any custody clobber breaks the
       justification. *)
    let block_clobbers lbl lo hi =
      let b = Ir.find_block f lbl in
      List.exists
        (fun (idx, i) -> idx > lo && idx < hi && clobbers i)
        (List.mapi (fun idx i -> (idx, i)) b.instrs)
    in
    if from_block = to_block then block_clobbers from_block from_pos to_pos
    else begin
      let rec chain lbl acc =
        if lbl = from_block then Some acc
        else
          match Dominators.idom dom lbl with
          | Some up -> chain up (lbl :: acc)
          | None -> None
      in
      match chain to_block [] with
      | None -> true (* witness does not even dominate: reject *)
      | Some between ->
          block_clobbers from_block from_pos max_int
          || block_clobbers to_block (-1) to_pos
          || List.exists
               (fun lbl ->
                 lbl <> to_block && block_clobbers lbl (-1) max_int)
               between
    end
  in
  List.iter
    (fun e ->
      match Hashtbl.find_opt where e.access with
      | None -> err e.access "access instruction no longer exists"
      | Some (ablock, apos, ai) -> begin
          (match ai.kind with
          | Ir.Load _ | Ir.Store _ -> ()
          | _ -> err e.access "witnessed instruction is not a load/store");
          if e.witness_ids = [] then err e.access "empty witness set";
          List.iter
            (fun wid ->
              match Hashtbl.find_opt where wid with
              | None -> err e.access "witness call %%%d no longer exists" wid
              | Some (wblock, wpos, wi) -> begin
                  match wi.kind with
                  | Ir.Call { callee; _ }
                    when Intrinsics.is_custody_source callee -> begin
                      match e.rule with
                      | Same | Congruent | Hoist ->
                          if
                            not
                              (Dominators.dominates dom wblock ablock
                              && (wblock <> ablock || wpos < apos))
                          then
                            err e.access
                              "witness %%%d (%s) does not dominate the access"
                              wid (rule_to_string e.rule)
                          else if
                            clobbers_between ~from_block:wblock
                              ~from_pos:wpos ~to_block:ablock ~to_pos:apos
                          then
                            err e.access
                              "custody clobbered between witness %%%d and \
                               the access"
                              wid
                      | Range -> begin
                          (* The witness guards a counted loop that runs
                             all its iterations before the access's block
                             is reachable: its header must dominate the
                             access, the body must be clobber-free, and
                             the trip count must be provably positive. *)
                          match Loops.loop_of_block loop_info wblock with
                          | None ->
                              err e.access
                                "range witness %%%d is not inside a loop" wid
                          | Some loop ->
                              if
                                not
                                  (Dominators.dominates dom loop.header
                                     ablock)
                              then
                                err e.access
                                  "range witness %%%d's loop does not \
                                   dominate the access"
                                  wid
                              else begin
                                let body_clobbers =
                                  List.exists
                                    (fun lbl ->
                                      List.exists clobbers
                                        (Ir.find_block f lbl).instrs)
                                    loop.body
                                in
                                if body_clobbers then
                                  err e.access
                                    "range witness %%%d's loop body clobbers \
                                     custody"
                                    wid;
                                let positive_trip =
                                  List.exists
                                    (fun (iv : Induction.iv) ->
                                      match
                                        ( Induction.const_of du iv.init,
                                          Option.bind iv.bound
                                            (Induction.const_of du) )
                                      with
                                      | Some i0, Some bnd ->
                                          iv.step > 0 && i0 < bnd
                                      | _ -> false)
                                    (Induction.ivs_of_loop ind loop)
                                in
                                if not positive_trip then
                                  err e.access
                                    "range witness %%%d's loop has no \
                                     provably positive trip count"
                                    wid
                              end
                        end
                    end
                  | _ ->
                      err e.access "witness %%%d is not a guard/chunk call"
                        wid
                end)
            e.witness_ids
        end)
    els;
  List.rev !errors

(* -- routing witnesses -------------------------------------------------- *)

(* Every access the route pass moves onto the page path leaves a witness:
   which access was re-routed, through which page call, and the static
   class that justified it (attribution only — the re-proof below never
   re-runs the classifier). The verifier re-checks each record purely
   structurally: the page call must exist, be page-flavored, sit
   immediately before its access in the same block, name the same
   pointer with a large-enough constant size and a write flavor at
   least as strong as the access. Conversely every page call in the
   module must be claimed by exactly one witness, so a transform cannot
   smuggle in (or duplicate) a page call the witness list does not own —
   the same tamper-resistance discipline as elision witnesses. *)

type routing = { routed_access : int; page_call : int; cls : string }

let check_routing_func (f : Ir.func) (routes : routing list) =
  let errors = ref [] in
  let err access fmt =
    Format.kasprintf
      (fun s ->
        errors :=
          Printf.sprintf "%s: bad routing witness for access %s: %s" f.fname
            (Telemetry.Site.key_to_string
               { Telemetry.Site.func = f.fname; instr = access })
            s
          :: !errors)
      fmt
  in
  let where = positions f in
  List.iter
    (fun r ->
      match (Hashtbl.find_opt where r.routed_access,
             Hashtbl.find_opt where r.page_call) with
      | None, _ -> err r.routed_access "access instruction no longer exists"
      | _, None ->
          err r.routed_access "page call %%%d no longer exists" r.page_call
      | Some (ablock, apos, ai), Some (pblock, ppos, pi) -> begin
          let aptr =
            match ai.kind with
            | Ir.Load { ptr; size; _ } -> Some (ptr, size, false)
            | Ir.Store { ptr; size; _ } -> Some (ptr, size, true)
            | _ ->
                err r.routed_access
                  "witnessed instruction is not a load/store";
                None
          in
          match (aptr, pi.kind) with
          | None, _ -> ()
          | Some _, Ir.Call { callee; _ } when not (Intrinsics.is_page callee)
            ->
              err r.routed_access "witness %%%d is not a page call" r.page_call
          | Some (ptr, size, is_store), Ir.Call { callee; args } -> begin
              if not (pblock = ablock && ppos + 1 = apos) then
                err r.routed_access
                  "page call %%%d is not immediately before the access"
                  r.page_call;
              match args with
              | [ pptr; Ir.Const psz ] ->
                  if pptr <> ptr then
                    err r.routed_access
                      "page call %%%d names a different pointer" r.page_call;
                  if psz < size then
                    err r.routed_access
                      "page call %%%d covers %d bytes but the access touches \
                       %d"
                      r.page_call psz size;
                  let pwrite =
                    match Intrinsics.classify callee with
                    | Intrinsics.Page { write } -> write
                    | _ -> false
                  in
                  if is_store && not pwrite then
                    err r.routed_access
                      "read-flavored page call %%%d cannot cover a store"
                      r.page_call
              | _ ->
                  err r.routed_access "page call %%%d is malformed" r.page_call
            end
          | Some _, _ ->
              err r.routed_access "witness %%%d is not a call" r.page_call
        end)
    routes;
  (* Exactly-once ownership: collect every page call in the function and
     require a bijection with the witness list. *)
  let claimed = Hashtbl.create 16 in
  List.iter
    (fun r ->
      if Hashtbl.mem claimed r.page_call then
        err r.routed_access "page call %%%d claimed by two routing witnesses"
          r.page_call
      else Hashtbl.replace claimed r.page_call ())
    routes;
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          match i.kind with
          | Ir.Call { callee; _ }
            when Intrinsics.is_page callee && not (Hashtbl.mem claimed i.id)
            ->
              errors :=
                Printf.sprintf
                  "%s: stray page call %s not owned by any routing witness"
                  f.fname
                  (Telemetry.Site.key_to_string
                     { Telemetry.Site.func = f.fname; instr = i.id })
                :: !errors
          | _ -> ())
        b.instrs)
    f.blocks;
  List.rev !errors

(* -- the checker's entry point ------------------------------------------ *)

type report = {
  violations : violation list;
  witness_errors : string list;
  routing_errors : string list;
}

(* The checker computes its own summaries and its own custody
   re-derivation from the module text — never reusing the pipeline's
   environment — so a corrupted producer summary shows up as uncovered
   accesses or rejected witnesses instead of vouching for itself. One
   structure per function serves the coverage and witness checks.
   Functions with no routing witnesses still get scanned: a page call in
   a witness-free function is exactly the smuggling case. *)
let check ?(summaries = true) ?witnesses ?routes (m : Ir.modul) =
  let env = if summaries then Some (Summary.compute m) else None in
  let witnesses =
    Option.map (fun els -> (els, module_call_clobbers m)) witnesses
  in
  let per_func (f : Ir.func) =
    let ind = Induction.analyze f in
    let witness_errors =
      match witnesses with
      | None -> []
      | Some (els, call_clobbers) -> (
          match records_of f els with
          | [] -> []
          | mine -> check_witnesses_func ~call_clobbers ind mine)
    in
    let routing_errors =
      match routes with
      | Some routes -> check_routing_func f (records_of f routes)
      | None -> []
    in
    (check_func ?summaries:env ind, witness_errors, routing_errors)
  in
  let results = List.map per_func m.funcs in
  {
    violations = List.concat_map (fun (v, _, _) -> v) results;
    witness_errors = List.concat_map (fun (_, w, _) -> w) results;
    routing_errors = List.concat_map (fun (_, _, r) -> r) results;
  }

exception Unsound of string list

let enforce ?summaries ?witnesses ?routes m =
  let r = check ?summaries ?witnesses ?routes m in
  match
    List.map violation_to_string r.violations
    @ r.witness_errors @ r.routing_errors
  with
  | [] -> ()
  | findings -> raise (Unsound findings)
