type mode = [ `Off | `All | `Gated ]

type candidate = {
  func : string;
  header : string;
  base : Ir.value;
  byte_stride : int;
  density : int;
  accesses : int list;
  avg_trip : float option;
  selected : bool;
}

type report = {
  candidates : candidate list;
  covered : (int, unit) Hashtbl.t;
  chunk_sites : int;
}

(* Group the loop's strided accesses by (base pointer, stride, constant
   displacement): each group becomes one chunked stream with its own
   runtime handle and pinned object. Accesses at different constant
   offsets (stencil neighbours) must not share a stream, or the pinned
   object would thrash between them on every iteration. *)
let group_accesses accesses =
  let table = Hashtbl.create 8 in
  List.iter
    (fun (a : Tfm_analysis.Induction.strided_access) ->
      let key = (a.base, a.byte_stride, a.gep_offset) in
      let cur = try Hashtbl.find table key with Not_found -> [] in
      Hashtbl.replace table key (a :: cur))
    accesses;
  Hashtbl.fold (fun key group acc -> (key, List.rev group) :: acc) table []
  |> List.sort compare

let decide cost ~mode ~density ~avg_trip =
  match mode with
  | `Off -> false
  | `All -> true
  | `Gated -> begin
      match avg_trip with
      | Some trip -> Cost_eq.should_chunk_profiled cost ~density ~avg_trip:trip
      | None -> Cost_eq.should_chunk_static cost ~density
    end

(* Insert [call] just before the instruction with [target_id]. *)
let insert_before (f : Ir.func) target_id make_call =
  List.iter
    (fun (b : Ir.block) ->
      if List.exists (fun (i : Ir.instr) -> i.id = target_id) b.instrs then
        b.instrs <-
          List.concat_map
            (fun (i : Ir.instr) ->
              if i.id = target_id then [ make_call (); i ] else [ i ])
            b.instrs)
    f.blocks

let append_to_block (b : Ir.block) instr = b.instrs <- b.instrs @ [ instr ]

(* Insert at the top of a block but after its phis. *)
let insert_after_phis (b : Ir.block) instr =
  let phis, rest =
    List.partition
      (fun (i : Ir.instr) ->
        match i.kind with Ir.Phi _ -> true | _ -> false)
      b.instrs
  in
  b.instrs <- phis @ (instr :: rest)

(* The chunking candidates of [f], in the order [run] decides them: for
   each loop with a preheader, each group of its strided accesses whose
   stride is nonzero, with the function's structure. A loop's accesses
   are read when the loop is reached, so [visit] may rewrite the loops
   it has already seen. *)
let iter_candidates (f : Ir.func) visit =
  let ind = Tfm_analysis.Induction.analyze f in
  List.iter
    (fun (loop : Tfm_analysis.Loops.loop) ->
      match loop.preheader with
      | None -> ()
      | Some preheader ->
          List.iter
            (fun ((base, byte_stride, _gep_offset), group) ->
              if byte_stride <> 0 then
                visit ind loop ~preheader ~base ~byte_stride group)
            (group_accesses
               (Tfm_analysis.Induction.strided_accesses ind loop)))
    (Tfm_analysis.Loops.loops (Tfm_analysis.Induction.loops ind))

(* A profile of a loop with a trip count [t] reads [t] if the loop is
   entered and nothing otherwise, so it can change the gate's verdict
   only where the verdict at [t] is not the static one. *)
let needs_profile cost ~object_size (m : Ir.modul) =
  match
    List.iter
      (fun f ->
        iter_candidates f (fun ind loop ~preheader:_ ~base:_ ~byte_stride _ ->
            let density = object_size / abs byte_stride in
            let verdict avg_trip =
              decide cost ~mode:`Gated ~density ~avg_trip
            in
            match Tfm_analysis.Induction.trip_count ind loop with
            | Some t when verdict (Some (float_of_int t)) = verdict None -> ()
            | Some _ | None -> raise_notrace Exit))
      m.funcs
  with
  | () -> false
  | exception Exit -> true

let run cost ~object_size ~mode ?profile (m : Ir.modul) =
  let covered = Hashtbl.create 64 in
  let candidates = ref [] in
  let next_handle = ref 0 in
  if mode <> `Off then
    List.iter
      (fun (f : Ir.func) ->
        iter_candidates f
          (fun _ loop ~preheader:preheader_label ~base ~byte_stride group ->
            let density = object_size / abs byte_stride in
            let avg_trip =
              match profile with
              | Some p ->
                  Tfm_analysis.Profile.avg_trip_count p ~func:f.fname
                    ~header:loop.header ~preheader:preheader_label
              | None -> None
            in
            let selected = decide cost ~mode ~density ~avg_trip in
            let access_ids =
              List.map
                (fun (a : Tfm_analysis.Induction.strided_access) -> a.instr_id)
                group
            in
            candidates :=
              {
                func = f.fname;
                header = loop.header;
                base;
                byte_stride;
                density;
                accesses = access_ids;
                avg_trip;
                selected;
              }
              :: !candidates;
            if selected then begin
              let handle = !next_handle in
              incr next_handle;
              (* Preheader: initialize the chunk stream. *)
              let preheader = Ir.find_block f preheader_label in
              append_to_block preheader
                {
                  Ir.id = Ir.fresh_id f;
                  kind =
                    Ir.Call
                      {
                        callee = Intrinsics.chunk_init;
                        args = [ Ir.Const handle; Ir.Const byte_stride ];
                      };
                };
              (* Each access: boundary-checked chunk access. *)
              List.iter
                (fun (a : Tfm_analysis.Induction.strided_access) ->
                  Hashtbl.replace covered a.instr_id ();
                  let ptr_of (i : Ir.instr) =
                    match i.kind with
                    | Ir.Load { ptr; _ } | Ir.Store { ptr; _ } -> ptr
                    | _ -> assert false
                  in
                  let blk = Ir.find_block f a.block in
                  let target =
                    List.find
                      (fun (i : Ir.instr) -> i.id = a.instr_id)
                      blk.instrs
                  in
                  let callee =
                    if a.is_store then Intrinsics.chunk_access_write
                    else Intrinsics.chunk_access_read
                  in
                  insert_before f a.instr_id (fun () ->
                      {
                        Ir.id = Ir.fresh_id f;
                        kind =
                          Ir.Call
                            {
                              callee;
                              args =
                                [
                                  Ir.Const handle;
                                  ptr_of target;
                                  Ir.Const a.access_size;
                                ];
                            };
                      }))
                group;
              (* Exits: release the pinned chunk. *)
              List.iter
                (fun exit_label ->
                  let exit_block = Ir.find_block f exit_label in
                  insert_after_phis exit_block
                    {
                      Ir.id = Ir.fresh_id f;
                      kind =
                        Ir.Call
                          {
                            callee = Intrinsics.chunk_end;
                            args = [ Ir.Const handle ];
                          };
                    })
                loop.exits
            end))
      m.funcs;
  { candidates = List.rev !candidates; covered; chunk_sites = !next_handle }
