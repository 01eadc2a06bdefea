(* Forward must-available dataflow over custody facts.

   A fact says: the bytes [lo, hi) relative to an anchor are in custody —
   some guard or chunk access on this path already performed the check
   and localized the object(s), and nothing since could have evicted or
   freed them. The custody contract mirrors the AIFM dereference-scope
   semantics the runtime implements (lib/aifm/scope.mli): between a
   guard's safety check and a release point the guarded object stays
   resident, so a second check on the same bytes is pure overhead. The
   release points are exactly the calls {!Intrinsics.clobbers_custody}
   flags — allocation (may evict to make room), free, and any opaque
   call — plus [!tfm_chunk_end] for facts established by the chunk
   protocol's pinned streams.

   Facts are anchored three ways so that equivalence is more than
   SSA-value identity:

   - [Val v]: bytes relative to the run-time value of [v] itself — the
     plain "same SSA pointer" case, plus [gep base, Const i] folded into
     its base.
   - [Slot (base, index, scale)]: bytes relative to [base + index*scale]
     for a non-constant [index] — two geps off the same base and index
     register that differ only in the constant field offset land on the
     same anchor, which is what licenses merging a struct's field guards.
   - Loop ranges: a counted loop whose body guards a dense affine stride
     of an invariant base and provably runs all its iterations
     contributes, on its unique exit edge, a [Val base] fact covering
     the whole scanned interval.

   The lattice join is must-style: at a control-flow merge only facts
   provable along every predecessor survive, as the pairwise
   intersections of their byte intervals; strength (write custody covers
   reads, not vice versa) degrades to the weaker side. *)

module Int_set = Set.Make (Int)

type anchor =
  | Val of Ir.value
  | Slot of Ir.value * Ir.value * int  (* base, index, scale *)

module Anchor_map = Map.Make (struct
  type t = anchor

  let compare = compare
end)

type fact = {
  lo : int;
  hi : int;  (* byte interval [lo, hi) relative to the anchor *)
  write : bool;  (* write custody (covers reads too) *)
  chunk : bool;  (* established by the chunk protocol: dies at chunk_end *)
  witnesses : Int_set.t;  (* ids of the establishing calls *)
}

type state = fact list Anchor_map.t

type t = {
  func : Ir.func;
  du : Defuse.t;
  cfg : Cfg.t;
  dom : Dominators.t;
  loop_info : Loops.t;
  ind : Induction.t;
  edge_gen : (string * string, (anchor * fact) list) Hashtbl.t;
  in_states : (string, state) Hashtbl.t;
  summaries : Summary.env option;
      (* when present, calls whose summary proves custody preservation
         stop clobbering the fact state *)
}

(* -- fact-set algebra --------------------------------------------------- *)

let fact_equal a b =
  a.lo = b.lo && a.hi = b.hi && a.write = b.write && a.chunk = b.chunk
  && Int_set.equal a.witnesses b.witnesses

(* [g] proves everything [f] does: wider interval, at least as strong,
   and no more fragile (a non-chunk fact survives chunk_end). *)
let subsumes g f =
  g.lo <= f.lo && g.hi >= f.hi
  && (g.write || not f.write)
  && ((not g.chunk) || f.chunk)

let normalize facts =
  (* Merge identical intervals (witness union), drop subsumed facts, keep
     a deterministic order and a small bound on the list. *)
  let merged =
    List.fold_left
      (fun acc f ->
        let same, rest =
          List.partition
            (fun g ->
              g.lo = f.lo && g.hi = f.hi && g.write = f.write
              && g.chunk = f.chunk)
            acc
        in
        match same with
        | [] -> f :: rest
        | g :: _ ->
            { f with witnesses = Int_set.union f.witnesses g.witnesses }
            :: rest)
      [] facts
  in
  let kept =
    List.filter
      (fun f ->
        not
          (List.exists
             (fun g -> (not (fact_equal g f)) && subsumes g f)
             merged))
      merged
  in
  let sorted =
    List.sort
      (fun a b ->
        compare (a.lo, a.hi, a.write, a.chunk) (b.lo, b.hi, b.write, b.chunk))
      kept
  in
  (* Cap per-anchor fact counts; prefer the widest intervals. Dropping a
     fact only loses optimization/coverage opportunities, never
     soundness. *)
  if List.length sorted <= 8 then sorted
  else
    List.sort (fun a b -> compare (b.hi - b.lo) (a.hi - a.lo)) sorted
    |> List.filteri (fun i _ -> i < 8)
    |> List.sort (fun a b -> compare (a.lo, a.hi) (b.lo, b.hi))

let state_equal (a : state) (b : state) =
  Anchor_map.equal
    (fun fa fb ->
      List.length fa = List.length fb && List.for_all2 fact_equal fa fb)
    a b

let join_states (a : state) (b : state) : state =
  Anchor_map.merge
    (fun _ fa fb ->
      match (fa, fb) with
      | Some fa, Some fb ->
          let inter =
            List.concat_map
              (fun x ->
                List.filter_map
                  (fun y ->
                    let lo = max x.lo y.lo and hi = min x.hi y.hi in
                    if lo >= hi then None
                    else
                      Some
                        {
                          lo;
                          hi;
                          write = x.write && y.write;
                          chunk = x.chunk || y.chunk;
                          witnesses = Int_set.union x.witnesses y.witnesses;
                        })
                  fb)
              fa
          in
          (match normalize inter with [] -> None | l -> Some l)
      | _ -> None)
    a b

(* -- anchoring ---------------------------------------------------------- *)

(* Where a pointer value's bytes land: always relative to the value
   itself, and — when it is a gep — also relative to its base (constant
   index) or its (base, index, scale) slot (symbolic index). *)
let anchors_of t (v : Ir.value) : (anchor * int) list =
  let direct = [ (Val v, 0) ] in
  match v with
  | Ir.Reg id -> begin
      match Defuse.def t.du id with
      | Some { kind = Ir.Gep { base; index; scale; offset }; _ } -> begin
          match Induction.const_of t.du index with
          | Some c -> ((Val base, (c * scale) + offset) : anchor * int) :: direct
          | None -> (Slot (base, index, scale), offset) :: direct
        end
      | _ -> direct
    end
  | Ir.Const _ | Ir.Constf _ | Ir.Arg _ | Ir.Sym _ -> direct

(* -- per-instruction transfer ------------------------------------------- *)

let add_fact state anchor f =
  Anchor_map.update anchor
    (function None -> Some [ f ] | Some l -> Some (normalize (f :: l)))
    state

let call_size args si =
  match List.nth_opt args si with
  | Some (Ir.Const n) when n > 0 -> n
  | _ -> 1

let apply_instr t (state : state) (i : Ir.instr) : state =
  match i.kind with
  | Ir.Call { callee; args } -> begin
      match Intrinsics.classify callee with
      | Intrinsics.Guard { write } | Intrinsics.Chunk_access { write } -> begin
          let chunk =
            match Intrinsics.classify callee with
            | Intrinsics.Chunk_access _ -> true
            | _ -> false
          in
          match Intrinsics.custody_args callee with
          | Some (pi, si) -> begin
              match List.nth_opt args pi with
              | Some ptr ->
                  let sz = call_size args si in
                  List.fold_left
                    (fun st (anchor, delta) ->
                      add_fact st anchor
                        {
                          lo = delta;
                          hi = delta + sz;
                          write;
                          chunk;
                          witnesses = Int_set.singleton i.id;
                        })
                    state (anchors_of t ptr)
              | None -> state
            end
          | None -> state
        end
      | Intrinsics.Chunk_end ->
          Anchor_map.filter_map
            (fun _ l ->
              match List.filter (fun f -> not f.chunk) l with
              | [] -> None
              | l -> Some l)
            state
      | Intrinsics.Alloc | Intrinsics.Free -> Anchor_map.empty
      | Intrinsics.Unknown ->
          if Summary.call_clobbers ?env:t.summaries callee then
            Anchor_map.empty
          else state
      | Intrinsics.Page _ ->
          (* Page-path accesses neither establish custody (nothing pins
             the faulted page) nor clobber it (the swap's budget is
             separate from the object pool's pins). *)
          state
      | Intrinsics.Neutral -> state
    end
  | _ -> state

(* -- loop-range facts --------------------------------------------------- *)

(* The loop-governing comparison with its exact operator (Lt vs Le
   changes the last index value, which must-coverage cares about). *)
let governing_cmp t (loop : Loops.loop) phi_id =
  let header = Ir.find_block t.func loop.header in
  match header.term with
  | Ir.Cbr (Ir.Reg cid, _, _) -> begin
      match Defuse.def t.du cid with
      | Some { kind = Ir.Icmp (((Ir.Lt | Ir.Le) as op), Ir.Reg l, bound); _ }
        when l = phi_id ->
          Option.map (fun b -> (op, b)) (Induction.const_of t.du bound)
      | _ -> None
    end
  | Ir.Br _ | Ir.Cbr _ | Ir.Ret _ | Ir.Unreachable -> None

(* A counted loop that provably runs all iterations from a constant range
   and whose body is clobber-free leaves, on its unique exit edge, range
   custody over every dense affine stride its guards walked. *)
let loop_range_facts t (loop : Loops.loop) =
  let body_blocks = List.map (Ir.find_block t.func) loop.body in
  let exits_only_from_header =
    List.for_all
      (fun blk ->
        blk = loop.header
        || List.for_all
             (fun s -> Loops.contains loop s)
             (Cfg.successors t.cfg blk))
      loop.body
  in
  let clobber_free =
    List.for_all
      (fun (b : Ir.block) ->
        List.for_all
          (fun (i : Ir.instr) ->
            match i.kind with
            | Ir.Call { callee; _ } ->
                (not (Summary.call_clobbers ?env:t.summaries callee))
                && Intrinsics.classify callee <> Intrinsics.Chunk_end
            | _ -> true)
          b.instrs)
      body_blocks
  in
  if not (exits_only_from_header && clobber_free) then []
  else
    let dominates_latches blk =
      List.for_all (fun l -> Dominators.dominates t.dom blk l) loop.latches
    in
    List.concat_map
      (fun (iv : Induction.iv) ->
        match (Induction.const_of t.du iv.init, governing_cmp t loop iv.phi_id)
        with
        | Some i0, Some (op, bnd) when iv.step > 0 ->
            let upper = match op with Ir.Le -> bnd | _ -> bnd - 1 in
            if i0 > upper then []
            else
              let last = i0 + ((upper - i0) / iv.step * iv.step) in
              List.concat_map
                (fun (b : Ir.block) ->
                  if not (dominates_latches b.label) then []
                  else
                    List.filter_map
                      (fun (i : Ir.instr) ->
                        match i.kind with
                        | Ir.Call { callee; args }
                          when Intrinsics.is_custody_source callee -> begin
                            match Intrinsics.custody_args callee with
                            | Some (pi, si) -> begin
                                match List.nth_opt args pi with
                                | Some (Ir.Reg pid) -> begin
                                    match Defuse.def t.du pid with
                                    | Some
                                        {
                                          kind =
                                            Ir.Gep
                                              { base; index; scale; offset };
                                          _;
                                        }
                                      when scale > 0
                                           && Induction.is_loop_invariant
                                                t.ind loop base -> begin
                                        match
                                          Induction.increment_of t.du
                                            iv.phi_id index
                                        with
                                        | Some k
                                          when scale * iv.step
                                               <= call_size args si ->
                                            let sz = call_size args si in
                                            let write, chunk =
                                              match
                                                Intrinsics.classify callee
                                              with
                                              | Intrinsics.Guard { write } ->
                                                  (write, false)
                                              | Intrinsics.Chunk_access
                                                  { write } ->
                                                  (write, true)
                                              | _ -> (false, false)
                                            in
                                            Some
                                              ( Val base,
                                                {
                                                  lo =
                                                    (scale * (i0 + k))
                                                    + offset;
                                                  hi =
                                                    (scale * (last + k))
                                                    + offset + sz;
                                                  write;
                                                  chunk;
                                                  witnesses =
                                                    Int_set.singleton i.id;
                                                } )
                                        | _ -> None
                                      end
                                    | _ -> None
                                  end
                                | _ -> None
                              end
                            | None -> None
                          end
                        | _ -> None)
                      b.instrs)
                body_blocks
        | _ -> [])
      (Induction.ivs_of_loop t.ind loop)

let compute_edge_gen t =
  List.iter
    (fun (loop : Loops.loop) ->
      match loop_range_facts t loop with
      | [] -> ()
      | facts ->
          List.iter
            (fun s ->
              if not (Loops.contains loop s) then begin
                let key = (loop.header, s) in
                let cur =
                  Option.value ~default:[] (Hashtbl.find_opt t.edge_gen key)
                in
                Hashtbl.replace t.edge_gen key (facts @ cur)
              end)
            (Cfg.successors t.cfg loop.header))
    (Loops.loops t.loop_info)

(* -- the fixpoint ------------------------------------------------------- *)

let transfer_block t state (b : Ir.block) =
  List.fold_left (fun st i -> apply_instr t st i) state b.instrs

let along_edge t ~src ~dst out_state =
  match Hashtbl.find_opt t.edge_gen (src, dst) with
  | None -> out_state
  | Some facts ->
      List.fold_left (fun st (a, f) -> add_fact st a f) out_state facts

let analyze ?summaries ind : t =
  let f = Induction.func ind in
  let loop_info = Induction.loops ind in
  let cfg = Loops.cfg loop_info in
  let t =
    {
      func = f;
      du = Induction.du ind;
      cfg;
      dom = Loops.dominators loop_info;
      loop_info;
      ind;
      edge_gen = Hashtbl.create 8;
      in_states = Hashtbl.create 16;
      summaries;
    }
  in
  compute_edge_gen t;
  let entry = (Ir.entry f).label in
  let rpo = Cfg.reachable cfg in
  let out_states : (string, state) Hashtbl.t = Hashtbl.create 16 in
  let changed = ref true in
  let iters = ref 0 in
  while !changed do
    changed := false;
    incr iters;
    if !iters > 200 then
      failwith ("Facts.analyze: fixpoint did not converge in " ^ f.fname);
    List.iter
      (fun lbl ->
        let in_state =
          if lbl = entry then Anchor_map.empty
          else
            (* Predecessors not yet visited contribute top (all facts):
               standard optimistic initialization for a must-problem;
               the loop iterates until the states stabilize. *)
            let pred_outs =
              List.filter_map
                (fun p ->
                  Option.map
                    (fun o -> along_edge t ~src:p ~dst:lbl o)
                    (Hashtbl.find_opt out_states p))
                (Cfg.predecessors t.cfg lbl)
            in
            match pred_outs with
            | [] -> Anchor_map.empty
            | s :: rest -> List.fold_left join_states s rest
        in
        let old_in = Hashtbl.find_opt t.in_states lbl in
        if old_in = None || not (state_equal (Option.get old_in) in_state)
        then begin
          Hashtbl.replace t.in_states lbl in_state;
          changed := true
        end;
        let out = transfer_block t in_state (Ir.find_block f lbl) in
        match Hashtbl.find_opt out_states lbl with
        | Some o when state_equal o out -> ()
        | _ ->
            Hashtbl.replace out_states lbl out;
            changed := true)
      rpo
  done;
  t

let in_state t lbl =
  Option.value ~default:Anchor_map.empty (Hashtbl.find_opt t.in_states lbl)

(* -- coverage queries --------------------------------------------------- *)

type hit = { covering : fact; anchor : anchor; delta_lo : int; delta_hi : int }

let facts_at (state : state) anchor =
  Option.value ~default:[] (Anchor_map.find_opt anchor state)

let fact_covers ~lo ~hi ~write f =
  f.lo <= lo && f.hi >= hi && (f.write || not write)

(* The byte interval the access can touch relative to [Val base], when
   the pointer strides an induction variable with constant range: lets
   range facts from an earlier loop cover a later loop's accesses. *)
let induction_interval t ~block (v : Ir.value) ~size =
  match v with
  | Ir.Reg id -> begin
      match Defuse.def t.du id with
      | Some { kind = Ir.Gep { base; index; scale; offset }; _ }
        when scale > 0 -> begin
          match Loops.loop_of_block t.loop_info block with
          | None -> None
          | Some loop ->
              if not (Induction.is_loop_invariant t.ind loop base) then None
              else
                List.find_map
                  (fun (iv : Induction.iv) ->
                    match
                      ( Induction.increment_of t.du iv.phi_id index,
                        Induction.const_of t.du iv.init,
                        governing_cmp t loop iv.phi_id )
                    with
                    | Some k, Some i0, Some (op, bnd) when iv.step > 0 ->
                        (* Conservative superset of the values the index
                           takes: [i0 .. upper]. *)
                        let upper =
                          match op with Ir.Le -> bnd | _ -> bnd - 1
                        in
                        if i0 > upper then None
                        else
                          Some
                            ( Val base,
                              (scale * (i0 + k)) + offset,
                              (scale * (upper + k)) + offset + size )
                    | _ -> None)
                  (Induction.ivs_of_loop t.ind loop)
        end
      | _ -> None
    end
  | _ -> None

let query ?(alive = fun _ -> true) t (state : state) ~block (v : Ir.value)
    ~size ~write : hit option =
  let at anchor lo hi =
    List.find_map
      (fun f ->
        if fact_covers ~lo ~hi ~write f && Int_set.for_all alive f.witnesses
        then Some { covering = f; anchor; delta_lo = lo; delta_hi = hi }
        else None)
      (facts_at state anchor)
  in
  let direct =
    List.find_map
      (fun ((anchor : anchor), delta) -> at anchor delta (delta + size))
      (anchors_of t v)
  in
  match direct with
  | Some _ as hit -> hit
  | None -> begin
      match induction_interval t ~block v ~size with
      | Some (anchor, lo, hi) -> at anchor lo hi
      | None -> None
    end
