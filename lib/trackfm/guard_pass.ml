type report = {
  guarded_loads : int;
  guarded_stores : int;
  skipped_non_heap : int;
  skipped_chunked : int;
}

let all_accesses (f : Ir.func) =
  List.concat_map
    (fun (b : Ir.block) ->
      List.filter_map
        (fun (i : Ir.instr) ->
          match i.kind with
          | Ir.Load _ -> Some (i.id, false)
          | Ir.Store _ -> Some (i.id, true)
          | _ -> None)
        b.instrs)
    f.blocks

let run ?summaries ?(exclude = Hashtbl.create 0) (m : Ir.modul) =
  let guarded_loads = ref 0 in
  let guarded_stores = ref 0 in
  let skipped_non_heap = ref 0 in
  let skipped_chunked = ref 0 in
  List.iter
    (fun (f : Ir.func) ->
      let alias = Tfm_analysis.Alias.analyze ?summaries f in
      List.iter
        (fun (b : Ir.block) ->
          b.instrs <-
            List.concat_map
              (fun (i : Ir.instr) ->
                let guard_call ptr size ~write =
                  {
                    Ir.id = Ir.fresh_id f;
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
                match i.kind with
                | Ir.Load { ptr; size; _ } ->
                    if Hashtbl.mem exclude i.id then begin
                      incr skipped_chunked;
                      [ i ]
                    end
                    else if Tfm_analysis.Alias.needs_guard alias ptr then begin
                      incr guarded_loads;
                      [ guard_call ptr size ~write:false; i ]
                    end
                    else begin
                      incr skipped_non_heap;
                      [ i ]
                    end
                | Ir.Store { ptr; size; _ } ->
                    if Hashtbl.mem exclude i.id then begin
                      incr skipped_chunked;
                      [ i ]
                    end
                    else if Tfm_analysis.Alias.needs_guard alias ptr then begin
                      incr guarded_stores;
                      [ guard_call ptr size ~write:true; i ]
                    end
                    else begin
                      incr skipped_non_heap;
                      [ i ]
                    end
                | _ -> [ i ])
              b.instrs)
        f.blocks)
    m.funcs;
  {
    guarded_loads = !guarded_loads;
    guarded_stores = !guarded_stores;
    skipped_non_heap = !skipped_non_heap;
    skipped_chunked = !skipped_chunked;
  }
