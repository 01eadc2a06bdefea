let is_ir_function (m : Ir.modul) callee =
  List.exists (fun (f : Ir.func) -> f.fname = callee) m.funcs

let has_alloca (f : Ir.func) =
  List.exists
    (fun (b : Ir.block) ->
      List.exists
        (fun (i : Ir.instr) ->
          match i.kind with Ir.Alloca _ -> true | _ -> false)
        b.instrs)
    f.blocks

let is_recursive (f : Ir.func) =
  List.exists
    (fun (b : Ir.block) ->
      List.exists
        (fun (i : Ir.instr) ->
          match i.kind with
          | Ir.Call { callee; _ } -> callee = f.fname
          | _ -> false)
        b.instrs)
    f.blocks

(* Clone [callee]'s body into [caller] at one call site. *)
let inline_one (caller : Ir.func) (callee : Ir.func) ~(block : Ir.block)
    ~(call : Ir.instr) ~(args : Ir.value list) ~(uniq : int) =
  (* Fresh names/ids for the clone. *)
  let label_map = Hashtbl.create 8 in
  List.iter
    (fun (b : Ir.block) ->
      Hashtbl.replace label_map b.label
        (Printf.sprintf "inl%d.%s" uniq b.label))
    callee.blocks;
  let id_map = Hashtbl.create 32 in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          Hashtbl.replace id_map i.id (Ir.fresh_id caller))
        b.instrs)
    callee.blocks;
  let args = Array.of_list args in
  let map_value = function
    | Ir.Reg id -> Ir.Reg (Hashtbl.find id_map id)
    | Ir.Arg i -> args.(i)
    | (Ir.Const _ | Ir.Constf _ | Ir.Sym _) as v -> v
  in
  let map_label l = Hashtbl.find label_map l in
  (* Split the calling block: [block] keeps the pre-call instructions and
     jumps into the clone; a fresh post block receives the rest plus the
     original terminator (so predecessors of [block] still land on the
     pre-call code). *)
  let rec split pre = function
    | [] -> invalid_arg "inline_one: call not in block"
    | (i : Ir.instr) :: rest ->
        if i.id = call.id then (List.rev pre, rest) else split (i :: pre) rest
  in
  let pre, post = split [] block.instrs in
  let post_label = Printf.sprintf "inl%d.ret" uniq in
  (* Collect return sites to build the result phi. *)
  let ret_arms = ref [] in
  let cloned_blocks =
    List.map
      (fun (b : Ir.block) ->
        let instrs =
          List.map
            (fun (i : Ir.instr) ->
              {
                Ir.id = Hashtbl.find id_map i.id;
                kind =
                  (match i.kind with
                  | Ir.Phi incoming ->
                      Ir.Phi
                        (List.map
                           (fun (l, v) -> (map_label l, map_value v))
                           incoming)
                  | k -> Ir.map_operands map_value k);
              })
            b.instrs
        in
        let term =
          match b.term with
          | Ir.Br l -> Ir.Br (map_label l)
          | Ir.Cbr (c, t, e) -> Ir.Cbr (map_value c, map_label t, map_label e)
          | Ir.Ret v ->
              let v =
                match v with Some v -> map_value v | None -> Ir.Const 0
              in
              ret_arms := (map_label b.label, v) :: !ret_arms;
              Ir.Br post_label
          | Ir.Unreachable -> Ir.Unreachable
        in
        { Ir.label = map_label b.label; instrs; term })
      callee.blocks
  in
  (* The post block: the call's result becomes a phi over the return
     sites, followed by the remaining instructions and the original
     terminator. *)
  let result_phi = { Ir.id = call.id; kind = Ir.Phi (List.rev !ret_arms) } in
  let post_block =
    { Ir.label = post_label; instrs = result_phi :: post; term = block.term }
  in
  (* Rewire the pre block. *)
  block.instrs <- pre;
  block.term <- Ir.Br (map_label (Ir.entry callee).label);
  (* Successor phis that referenced the original block now flow from the
     post block. *)
  List.iter
    (fun succ_label ->
      match Ir.find_block caller succ_label with
      | succ ->
          succ.instrs <-
            List.map
              (fun (i : Ir.instr) ->
                match i.kind with
                | Ir.Phi incoming ->
                    {
                      i with
                      kind =
                        Ir.Phi
                          (List.map
                             (fun (l, v) ->
                               ((if l = block.label then post_label else l), v))
                             incoming);
                    }
                | _ -> i)
              succ.instrs
      | exception Not_found -> ())
    (Ir.successors post_block.term);
  caller.blocks <- caller.blocks @ cloned_blocks @ [ post_block ]

(* Callees larger than this many instructions stay calls. *)
let max_size = 100

let find_inlinable (m : Ir.modul) (caller : Ir.func) =
  List.find_map
    (fun (b : Ir.block) ->
      List.find_map
        (fun (i : Ir.instr) ->
          match i.kind with
          | Ir.Call { callee; args }
            when callee <> caller.fname && is_ir_function m callee -> begin
              match Ir.find_func m callee with
              | g
                when (not (has_alloca g))
                     && (not (is_recursive g))
                     && Ir.instr_count g <= max_size ->
                  Some (b, i, g, args)
              | _ -> None
            end
          | _ -> None)
        b.instrs)
    caller.blocks

let inline_calls (m : Ir.modul) =
  let count = ref 0 in
  let uniq = ref 0 in
  let budget = ref 1000 (* defensive bound on total inlinings *) in
  List.iter
    (fun (caller : Ir.func) ->
      let continue_ = ref true in
      while !continue_ && !budget > 0 do
        match find_inlinable m caller with
        | Some (block, call, callee, args) ->
            incr uniq;
            incr count;
            decr budget;
            inline_one caller callee ~block ~call ~args ~uniq:!uniq
        | None -> continue_ := false
      done)
    m.funcs;
  Verifier.check_module m;
  !count
