type t = {
  f : Ir.func;
  mutable cur : Ir.block;
  mutable label_counter : int;
}

let create m ~name ~nparams =
  let entry : Ir.block = { label = "entry"; instrs = []; term = Ir.Unreachable } in
  let f : Ir.func = { fname = name; nparams; blocks = [ entry ]; next_id = 0 } in
  m.Ir.funcs <- m.Ir.funcs @ [ f ];
  { f; cur = entry; label_counter = 0 }

let func b = b.f

let arg i = Ir.Arg i

let add_block b hint =
  b.label_counter <- b.label_counter + 1;
  let label = Printf.sprintf "%s%d" hint b.label_counter in
  let blk : Ir.block = { label; instrs = []; term = Ir.Unreachable } in
  b.f.blocks <- b.f.blocks @ [ blk ];
  label

let set_block b label = b.cur <- Ir.find_block b.f label

let current_label b = b.cur.label

let emit b kind =
  let id = Ir.fresh_id b.f in
  b.cur.instrs <- b.cur.instrs @ [ { Ir.id; kind } ];
  Ir.Reg id

let binop b op x y = emit b (Ir.Binop (op, x, y))
let add b x y = binop b Ir.Add x y
let sub b x y = binop b Ir.Sub x y
let mul b x y = binop b Ir.Mul x y
let fbinop b op x y = emit b (Ir.Fbinop (op, x, y))
let icmp b op x y = emit b (Ir.Icmp (op, x, y))
let fcmp b op x y = emit b (Ir.Fcmp (op, x, y))
let si_to_fp b v = emit b (Ir.Si_to_fp v)
let fp_to_si b v = emit b (Ir.Fp_to_si v)

let load b ?(size = 8) ?(is_float = false) ptr =
  emit b (Ir.Load { ptr; size; is_float })

let store b ?(size = 8) ?(is_float = false) v ~ptr =
  ignore (emit b (Ir.Store { ptr; size; is_float; v }))

let gep b base ~index ~scale ?(offset = 0) () =
  emit b (Ir.Gep { base; index; scale; offset })

let alloca b n = emit b (Ir.Alloca n)
let call b callee args = emit b (Ir.Call { callee; args })
let phi b incoming = emit b (Ir.Phi incoming)
let select b c x y = emit b (Ir.Select (c, x, y))

let patch_phi b v pred arm =
  let id = match v with Ir.Reg id -> id | _ -> invalid_arg "patch_phi" in
  let patch_instr (i : Ir.instr) =
    if i.id <> id then i
    else
      match i.kind with
      | Ir.Phi incoming ->
          let incoming = List.remove_assoc pred incoming in
          { i with kind = Ir.Phi (incoming @ [ (pred, arm) ]) }
      | _ -> invalid_arg "patch_phi: not a phi"
  in
  let patch_block (blk : Ir.block) =
    blk.instrs <- List.map patch_instr blk.instrs
  in
  List.iter patch_block b.f.blocks

let br b l = b.cur.term <- Ir.Br l
let cbr b c t e = b.cur.term <- Ir.Cbr (c, t, e)
let ret b v = b.cur.term <- Ir.Ret v

let for_loop b ?(hint = "loop") ~init ~bound ?(step = 1) body =
  let header = add_block b (hint ^ ".header") in
  let body_l = add_block b (hint ^ ".body") in
  let latch = add_block b (hint ^ ".latch") in
  let exit = add_block b (hint ^ ".exit") in
  let preheader = current_label b in
  br b header;
  set_block b header;
  let iv = phi b [ (preheader, init) ] in
  let cond = icmp b Ir.Lt iv bound in
  cbr b cond body_l exit;
  set_block b body_l;
  body b iv;
  (* The body may have moved the insertion point; wherever it ended up
     flows into the latch. *)
  br b latch;
  set_block b latch;
  let next = add b iv (Ir.Const step) in
  br b header;
  patch_phi b iv latch next;
  set_block b exit

let for_loop_acc b ?(hint = "loop") ~init ~bound ?(step = 1) ~accs body =
  let header = add_block b (hint ^ ".header") in
  let body_l = add_block b (hint ^ ".body") in
  let latch = add_block b (hint ^ ".latch") in
  let exit = add_block b (hint ^ ".exit") in
  let preheader = current_label b in
  br b header;
  set_block b header;
  let iv = phi b [ (preheader, init) ] in
  let acc_phis = List.map (fun a -> phi b [ (preheader, a) ]) accs in
  let cond = icmp b Ir.Lt iv bound in
  cbr b cond body_l exit;
  set_block b body_l;
  let next_accs = body b ~iv ~accs:acc_phis in
  if List.length next_accs <> List.length accs then
    invalid_arg "for_loop_acc: body must return one value per accumulator";
  br b latch;
  set_block b latch;
  let next = add b iv (Ir.Const step) in
  br b header;
  patch_phi b iv latch next;
  List.iter2 (fun p v -> patch_phi b p latch v) acc_phis next_accs;
  set_block b exit;
  acc_phis

let for_loop_down b ?(hint = "rloop") ~init ~bound ?(step = 1) body =
  if step <= 0 then invalid_arg "for_loop_down: step must be positive";
  let header = add_block b (hint ^ ".header") in
  let body_l = add_block b (hint ^ ".body") in
  let latch = add_block b (hint ^ ".latch") in
  let exit = add_block b (hint ^ ".exit") in
  let preheader = current_label b in
  br b header;
  set_block b header;
  let iv = phi b [ (preheader, init) ] in
  let cond = icmp b Ir.Gt iv bound in
  cbr b cond body_l exit;
  set_block b body_l;
  body b iv;
  br b latch;
  set_block b latch;
  let next = sub b iv (Ir.Const step) in
  br b header;
  patch_phi b iv latch next;
  set_block b exit

let while_loop_acc b ?(hint = "while") ~accs ~cond body =
  let header = add_block b (hint ^ ".header") in
  let body_l = add_block b (hint ^ ".body") in
  let latch = add_block b (hint ^ ".latch") in
  let exit = add_block b (hint ^ ".exit") in
  let preheader = current_label b in
  br b header;
  set_block b header;
  let acc_phis = List.map (fun a -> phi b [ (preheader, a) ]) accs in
  let c = cond b ~accs:acc_phis in
  cbr b c body_l exit;
  set_block b body_l;
  let next_accs = body b ~accs:acc_phis in
  if List.length next_accs <> List.length accs then
    invalid_arg "while_loop_acc: body must return one value per accumulator";
  br b latch;
  set_block b latch;
  br b header;
  List.iter2 (fun p v -> patch_phi b p latch v) acc_phis next_accs;
  set_block b exit;
  acc_phis

let if_then b ~cond then_body =
  let then_l = add_block b "then" in
  let join = add_block b "join" in
  cbr b cond then_l join;
  set_block b then_l;
  then_body b;
  br b join;
  set_block b join
