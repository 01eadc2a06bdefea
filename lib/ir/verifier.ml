exception Ill_formed of string

let fail fmt = Format.kasprintf (fun s -> raise (Ill_formed s)) fmt

let check_func (f : Ir.func) =
  if f.blocks = [] then fail "%s: function has no blocks" f.fname;
  let labels = Hashtbl.create 16 in
  List.iter
    (fun (b : Ir.block) ->
      if Hashtbl.mem labels b.label then
        fail "%s: duplicate block label %s" f.fname b.label;
      Hashtbl.replace labels b.label ())
    f.blocks;
  let defs = Hashtbl.create 64 in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          if Hashtbl.mem defs i.id then
            fail "%s: duplicate instruction id %d" f.fname i.id;
          Hashtbl.replace defs i.id (Ir.defines_value i.kind))
        b.instrs)
    f.blocks;
  let check_value where = function
    | Ir.Reg id -> begin
        match Hashtbl.find_opt defs id with
        | Some true -> ()
        | Some false -> fail "%s/%s: use of void instruction %%%d" f.fname where id
        | None -> fail "%s/%s: use of undefined register %%%d" f.fname where id
      end
    | Ir.Arg i ->
        if i < 0 || i >= f.nparams then
          fail "%s/%s: argument index %d out of range" f.fname where i
    | Ir.Const _ | Ir.Constf _ | Ir.Sym _ -> ()
  in
  let cfg = Cfg.build f in
  List.iter
    (fun (b : Ir.block) ->
      let seen_non_phi = ref false in
      List.iter
        (fun (i : Ir.instr) ->
          begin
            match i.kind with
            | Ir.Phi incoming ->
                if !seen_non_phi then
                  fail "%s/%s: phi %%%d after non-phi instruction" f.fname
                    b.label i.id;
                if b.label = (Ir.entry f).label then
                  fail "%s: phi in entry block" f.fname;
                let preds = List.sort compare (Cfg.predecessors cfg b.label) in
                let arms = List.sort compare (List.map fst incoming) in
                if preds <> arms then
                  fail "%s/%s: phi %%%d arms [%s] do not match preds [%s]"
                    f.fname b.label i.id (String.concat ";" arms)
                    (String.concat ";" preds)
            | Ir.Load { size; _ } | Ir.Store { size; _ } ->
                if not (List.mem size [ 1; 2; 4; 8 ]) then
                  fail "%s/%s: bad access size %d" f.fname b.label size;
                seen_non_phi := true
            | Ir.Call { callee; args } ->
                (* Runtime-ABI intrinsics must be structurally sound
                   (arity, pointer-typed pointer operand, constant
                   size/handle) — a malformed guard is a broken
                   transform, not a semantic edge case. *)
                begin
                  match Intrinsics.check_call ~callee ~args with
                  | Some msg ->
                      fail "%s/%s: malformed intrinsic call %%%d: %s" f.fname
                        b.label i.id msg
                  | None -> ()
                end;
                seen_non_phi := true
            | _ -> seen_non_phi := true
          end;
          List.iter (check_value b.label) (Ir.instr_operands i.kind))
        b.instrs;
      begin
        match b.term with
        | Ir.Cbr (c, _, _) -> check_value b.label c
        | Ir.Ret (Some v) -> check_value b.label v
        | Ir.Br _ | Ir.Ret None | Ir.Unreachable -> ()
      end;
      List.iter
        (fun target ->
          if not (Hashtbl.mem labels target) then
            fail "%s/%s: branch to unknown block %s" f.fname b.label target)
        (Ir.successors b.term))
    f.blocks

let check_module (m : Ir.modul) = List.iter check_func m.funcs
