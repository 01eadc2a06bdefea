(* Interprocedural function summaries.

   A bottom-up fixpoint over the call graph's SCCs computes, per
   function: return-value provenance, per-parameter escape, mod/ref
   effects, and — the property the trackfm passes actually spend —
   whether a call to the function preserves the caller's custody facts.

   Custody-safety deliberately mirrors the guard-coverage checker's own
   independent re-derivation ({!Coverage.module_call_clobbers}): a call
   preserves custody only if no reachable instruction in the callee (or
   anything it calls) stores to memory, allocates, frees, releases a
   chunk pin, or performs a write guard/chunk access, and every callee
   on the way is defined in the module. Stores clobber because custody
   facts may be anchored at memory slots; allocation and free because
   they can evict or invalidate; chunk-end because it releases the pins
   earlier chunk accesses established. Recursion is resolved
   optimistically (greatest fixpoint): a cycle clobbers custody only if
   some member actually contains a clobbering instruction, which is the
   same answer the checker's reachability pass computes.

   Unknown external callees pin their caller at bottom: we cannot see
   their bodies, so the caller may do anything. *)

type prov =
  | Pnone  (* no pointer flows here (float math, comparisons) *)
  | Pheap
  | Pstack
  | Pglobal
  | From_arg of int  (* derived from parameter i, offsets included *)
  | Punknown

type effects = {
  reads_heap : bool;
  writes_heap : bool;
  allocs : bool;
  frees : bool;
  calls_unknown : bool;  (* calls an external we have no body for *)
}

type fsum = {
  ret : prov;
  escapes : bool array;  (* per parameter; directly-tracked chains only *)
  eff : effects;
  custody_safe : bool;  (* calling this preserves caller custody facts *)
}

type env = (string, fsum) Hashtbl.t

let no_effects =
  {
    reads_heap = false;
    writes_heap = false;
    allocs = false;
    frees = false;
    calls_unknown = false;
  }

let all_effects =
  {
    reads_heap = true;
    writes_heap = true;
    allocs = true;
    frees = true;
    calls_unknown = true;
  }

let bottom ~nparams =
  {
    ret = Punknown;
    escapes = Array.make nparams true;
    eff = all_effects;
    custody_safe = false;
  }

let optimistic ~nparams =
  {
    ret = Pnone;
    escapes = Array.make nparams false;
    eff = no_effects;
    custody_safe = true;
  }

let is_bottom s = s.custody_safe = false && s.eff = all_effects

let prov_join a b =
  match (a, b) with
  | Pnone, x | x, Pnone -> x
  | _ when a = b -> a
  | _ -> Punknown

let may_heap = function
  | Pheap | Punknown | From_arg _ -> true
  | Pnone | Pstack | Pglobal -> false

let lookup (env : env) name = Hashtbl.find_opt env name
let set (env : env) name s = Hashtbl.replace env name s

(* The custody predicate clients consult at call sites. Intrinsic names
   keep their table semantics; for everything else the summary decides,
   and absence of a summary (external callee, or summaries disabled)
   means the call may do anything. *)
let call_clobbers ?env name =
  match Intrinsics.classify name with
  | Intrinsics.Unknown -> (
      match env with
      | None -> true
      | Some e -> (
          match lookup e name with
          | Some s -> not s.custody_safe
          | None -> true))
  | _ -> Intrinsics.clobbers_custody name

(* Map a callee's return provenance into the caller's frame. *)
let apply_ret value_prov args = function
  | From_arg k -> (
      match List.nth_opt args k with
      | Some v -> value_prov v
      | None -> Punknown)
  | p -> p

let summarize (env : env) (f : Ir.func) =
  let prov_tbl = Hashtbl.create 64 in
  let value_prov = function
    | Ir.Const _ | Ir.Constf _ -> Pnone
    | Ir.Sym _ -> Pglobal
    | Ir.Arg i -> From_arg i
    | Ir.Reg id -> ( try Hashtbl.find prov_tbl id with Not_found -> Pnone)
  in
  let transfer (i : Ir.instr) =
    match i.kind with
    | Ir.Alloca _ -> Pstack
    | Ir.Call { callee; args } -> (
        match Intrinsics.classify callee with
        | Intrinsics.Alloc -> Pheap
        | Intrinsics.Unknown -> (
            match lookup env callee with
            | Some s -> apply_ret value_prov args s.ret
            | None -> Punknown)
        | Intrinsics.Guard _ | Intrinsics.Chunk_access _ | Intrinsics.Page _ ->
            Punknown
        | Intrinsics.Free | Intrinsics.Chunk_end | Intrinsics.Neutral -> Pnone)
    | Ir.Gep { base; _ } -> value_prov base
    | Ir.Phi incoming ->
        List.fold_left
          (fun acc (_, v) -> prov_join acc (value_prov v))
          Pnone incoming
    | Ir.Select (_, a, b) -> prov_join (value_prov a) (value_prov b)
    | Ir.Load { is_float = false; _ } -> Punknown
    | Ir.Load { is_float = true; _ } -> Pnone
    | Ir.Binop _ -> Punknown (* integer math may carry a cast pointer *)
    | Ir.Fbinop _ | Ir.Icmp _ | Ir.Fcmp _ | Ir.Si_to_fp _ | Ir.Fp_to_si _
    | Ir.Store _ ->
        Pnone
  in
  Defuse.fixpoint f prov_tbl ~bot:Pnone ~join:prov_join transfer;
  (* Effects, escapes, custody — one pass over the converged provenance. *)
  let eff = ref no_effects in
  let escapes = Array.make f.nparams false in
  let custody_safe = ref true in
  let mark_escape v =
    match value_prov v with
    | From_arg i when i < f.nparams -> escapes.(i) <- true
    | _ -> ()
  in
  let ret = ref Pnone in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          match i.kind with
          | Ir.Load { ptr; _ } ->
              if may_heap (value_prov ptr) then
                eff := { !eff with reads_heap = true }
          | Ir.Store { ptr; v; _ } ->
              custody_safe := false;
              if may_heap (value_prov ptr) then
                eff := { !eff with writes_heap = true };
              mark_escape v
          | Ir.Call { callee; args } -> (
              match Intrinsics.classify callee with
              | Intrinsics.Alloc ->
                  custody_safe := false;
                  eff := { !eff with allocs = true }
              | Intrinsics.Free ->
                  custody_safe := false;
                  eff := { !eff with frees = true };
                  List.iter mark_escape args
              | Intrinsics.Chunk_end -> custody_safe := false
              | Intrinsics.Guard { write }
              | Intrinsics.Chunk_access { write }
              | Intrinsics.Page { write } ->
                  if write then custody_safe := false;
                  eff :=
                    {
                      !eff with
                      reads_heap = true;
                      writes_heap = !eff.writes_heap || write;
                    }
              | Intrinsics.Neutral -> ()
              | Intrinsics.Unknown -> (
                  match lookup env callee with
                  | Some s ->
                      if not s.custody_safe then custody_safe := false;
                      eff :=
                        {
                          reads_heap = !eff.reads_heap || s.eff.reads_heap;
                          writes_heap = !eff.writes_heap || s.eff.writes_heap;
                          allocs = !eff.allocs || s.eff.allocs;
                          frees = !eff.frees || s.eff.frees;
                          calls_unknown =
                            !eff.calls_unknown || s.eff.calls_unknown;
                        };
                      List.iteri
                        (fun j a ->
                          let esc =
                            j >= Array.length s.escapes || s.escapes.(j)
                          in
                          if esc then mark_escape a)
                        args
                  | None ->
                      (* External body we cannot see: bottom at this site. *)
                      custody_safe := false;
                      eff := all_effects;
                      List.iter mark_escape args))
          | _ -> ())
        b.instrs;
      match b.term with
      | Ir.Ret (Some v) -> ret := prov_join !ret (value_prov v)
      | _ -> ())
    f.blocks;
  { ret = !ret; escapes; eff = !eff; custody_safe = !custody_safe }

(* Recursive SCCs are seeded optimistically and iterated to the greatest
   fixpoint. The lattice is finite (effects grow, custody shrinks,
   provenance has height 2), so this converges; tripping the round cap
   degrades the SCC to the sound bottom. [max_rounds] exists so tests
   can force that tripwire (set it to 0) and watch the lint diagnose it. *)
let compute ?max_rounds (m : Ir.modul) : env =
  let env : env = Hashtbl.create 16 in
  Callgraph.fixpoint ?max_rounds (Callgraph.build m) m
    ~seed:(fun f -> set env f.fname (optimistic ~nparams:f.nparams))
    ~step:(fun f ->
      let nu = summarize env f in
      let changed = lookup env f.fname <> Some nu in
      set env f.fname nu;
      changed)
    ~give_up:(fun f -> set env f.fname (bottom ~nparams:f.nparams));
  env

let prov_to_string = function
  | Pnone -> "none"
  | Pheap -> "heap"
  | Pstack -> "stack"
  | Pglobal -> "global"
  | From_arg i -> Printf.sprintf "arg%d" i
  | Punknown -> "unknown"

let effects_to_string e =
  let tags =
    List.filter_map
      (fun (on, tag) -> if on then Some tag else None)
      [
        (e.reads_heap, "reads-heap");
        (e.writes_heap, "writes-heap");
        (e.allocs, "allocs");
        (e.frees, "frees");
        (e.calls_unknown, "calls-unknown");
      ]
  in
  if tags = [] then "pure" else String.concat "," tags

let fsum_to_string s =
  let esc =
    if Array.length s.escapes = 0 then "-"
    else
      String.concat ""
        (Array.to_list (Array.map (fun b -> if b then "E" else ".") s.escapes))
  in
  Printf.sprintf "ret=%s escapes=%s eff=%s custody=%s" (prov_to_string s.ret)
    esc (effects_to_string s.eff)
    (if s.custody_safe then "preserving" else "clobbering")

(* One-line annotation for call instructions in IR dumps. *)
let annotate (env : env) (i : Ir.instr) =
  match i.Ir.kind with
  | Ir.Call { callee; _ } when Intrinsics.classify callee = Intrinsics.Unknown
    -> (
      match lookup env callee with
      | Some s -> Some ("!summary " ^ fsum_to_string s)
      | None -> Some "!summary bottom (external)")
  | _ -> None

let to_string (m : Ir.modul) (env : env) =
  let cg = Callgraph.build m in
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Callgraph.to_string cg);
  Buffer.add_string buf "summaries:\n";
  List.iter
    (fun (f : Ir.func) ->
      match lookup env f.Ir.fname with
      | Some s ->
          Buffer.add_string buf
            (Printf.sprintf "  %s/%d: %s\n" f.Ir.fname f.Ir.nparams
               (fsum_to_string s))
      | None -> ())
    m.funcs;
  Buffer.contents buf

(* Summary-coverage lint: which functions are stuck at (or near) bottom,
   and *why* — so the analysis's conservatism is visible, not silent.
   Three distinguishable causes, in diagnostic priority order:
   - the function itself calls an unknown external (named);
   - it reaches unknown externals only through defined callees — an
     opaque call, named along with what that callee reaches;
   - its whole call tree stays in the module yet it is still bottom,
     which only the recursive-SCC fixpoint tripwire can produce. *)
let lint (m : Ir.modul) (env : env) =
  let cg = Callgraph.build m in
  List.filter_map
    (fun (f : Ir.func) ->
      match lookup env f.Ir.fname with
      | Some s when s.eff.calls_unknown || is_bottom s ->
          let n = Callgraph.node cg f.Ir.fname in
          let direct =
            match n with Some n -> n.Callgraph.unknown_callees | None -> []
          in
          let why =
            if direct <> [] then
              "unknown callee(s): " ^ String.concat ", " direct
            else
              let reach = Callgraph.reaches_unknown cg f.Ir.fname in
              if reach <> [] then
                let via =
                  match n with
                  | Some n ->
                      List.filter
                        (fun c -> Callgraph.reaches_unknown cg c <> [])
                        n.Callgraph.callees
                  | None -> []
                in
                Printf.sprintf "opaque call(s): %s reach%s unknown %s"
                  (String.concat ", " via)
                  (match via with [ _ ] -> "es" | _ -> "")
                  (String.concat ", " reach)
              else if Callgraph.is_recursive cg f.Ir.fname then
                "recursive SCC tripped the fixpoint round cap"
              else "unresolved (no unknown callees in reach)"
          in
          Some (Printf.sprintf "%s: stuck at bottom (%s)" f.Ir.fname why)
      | _ -> None)
    m.funcs
