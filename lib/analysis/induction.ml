type iv = {
  phi_id : int;
  init : Ir.value;
  step : int;
  header : string;
  bound : Ir.value option;
}

type strided_access = {
  instr_id : int;
  block : string;
  is_store : bool;
  access_size : int;
  base : Ir.value;
  gep_offset : int;
  iv : iv;
  byte_stride : int;
}

type t = {
  f : Ir.func;
  du : Defuse.t;
  loop_info : Loops.t;
  ivs : (string, iv list) Hashtbl.t; (* header -> ivs *)
}

let is_loop_invariant t (loop : Loops.loop) = function
  | Ir.Const _ | Ir.Constf _ | Ir.Arg _ | Ir.Sym _ -> true
  | Ir.Reg id -> begin
      match Defuse.block_of t.du id with
      | Some blk -> not (Loops.contains loop blk)
      | None -> false
    end

(* Evaluate a value as a compile-time constant by chasing simple defs. *)
let rec const_of du v =
  match v with
  | Ir.Const n -> Some n
  | Ir.Reg id -> begin
      match Defuse.def du id with
      | Some { kind = Ir.Binop (op, a, b); _ } -> begin
          match (const_of du a, const_of du b, op) with
          | Some x, Some y, Ir.Add -> Some (x + y)
          | Some x, Some y, Ir.Sub -> Some (x - y)
          | Some x, Some y, Ir.Mul -> Some (x * y)
          | Some x, Some y, Ir.Shl -> Some (x lsl y)
          | _ -> None
        end
      | _ -> None
    end
  | Ir.Constf _ | Ir.Arg _ | Ir.Sym _ -> None

(* Does [v] compute [phi + constant] (possibly through an add/sub chain)?
   Returns the net constant increment. *)
let rec increment_of du phi_id v =
  match v with
  | Ir.Reg id when id = phi_id -> Some 0
  | Ir.Reg id -> begin
      match Defuse.def du id with
      | Some { kind = Ir.Binop (Ir.Add, a, b); _ } -> begin
          match (increment_of du phi_id a, const_of du b) with
          | Some k, Some c -> Some (k + c)
          | _ -> (
              match (const_of du a, increment_of du phi_id b) with
              | Some c, Some k -> Some (k + c)
              | _ -> None)
        end
      | Some { kind = Ir.Binop (Ir.Sub, a, b); _ } -> begin
          match (increment_of du phi_id a, const_of du b) with
          | Some k, Some c -> Some (k - c)
          | _ -> None
        end
      | _ -> None
    end
  | Ir.Const _ | Ir.Constf _ | Ir.Arg _ | Ir.Sym _ -> None

(* The loop-governing bound: header terminator [cbr (icmp lt iv bound)]. *)
let governing_bound (f : Ir.func) du loop phi_id invariant =
  let header = Ir.find_block f (loop : Loops.loop).header in
  match header.term with
  | Ir.Cbr (Ir.Reg cond_id, _, _) -> begin
      match Defuse.def du cond_id with
      | Some { kind = Ir.Icmp ((Ir.Lt | Ir.Le), Ir.Reg l, bound); _ }
        when l = phi_id && invariant bound ->
          Some bound
      | _ -> None
    end
  | Ir.Br _ | Ir.Cbr _ | Ir.Ret _ | Ir.Unreachable -> None

let find_ivs f du loop_info (loop : Loops.loop) =
  let header = Ir.find_block f loop.header in
  let invariant v =
    is_loop_invariant { f; du; loop_info; ivs = Hashtbl.create 0 } loop v
  in
  List.filter_map
    (fun (i : Ir.instr) ->
      match i.kind with
      | Ir.Phi incoming ->
          let from_outside, from_latch =
            List.partition
              (fun (l, _) -> not (List.mem l loop.latches))
              incoming
          in
          begin
            match (from_outside, from_latch) with
            | [ (_, init) ], latch_arms when invariant init -> begin
                (* Every latch arm must increment by the same constant. *)
                let steps =
                  List.map (fun (_, v) -> increment_of du i.id v) latch_arms
                in
                match steps with
                | Some s :: rest
                  when s <> 0 && List.for_all (( = ) (Some s)) rest ->
                    Some
                      {
                        phi_id = i.id;
                        init;
                        step = s;
                        header = loop.header;
                        bound = governing_bound f du loop i.id invariant;
                      }
                | _ -> None
              end
            | _ -> None
          end
      | _ -> None)
    header.instrs

(* Stride coefficient of [v] with respect to the IV phi: [v] must be
   [a*iv + invariant]; returns [a]. Loop-invariant subterms contribute
   coefficient 0 even when their value is not a compile-time constant —
   this is what lets accesses like [p\[d*n + i\]] chunk on [i] while [d*n]
   varies per entry of the enclosing loop. Multiplications scaling the IV
   still need a numeric factor, since the stride must be static. *)
let stride_coeff t loop phi_id v =
  let rec go v =
    if is_loop_invariant t loop v then Some 0
    else
      match v with
      | Ir.Reg id when id = phi_id -> Some 1
      | Ir.Reg id -> begin
          match Defuse.def t.du id with
          | Some { kind = Ir.Binop (op, x, y); _ } -> begin
              match op with
              | Ir.Add -> begin
                  match (go x, go y) with
                  | Some a1, Some a2 -> Some (a1 + a2)
                  | _ -> None
                end
              | Ir.Sub -> begin
                  match (go x, go y) with
                  | Some a1, Some a2 -> Some (a1 - a2)
                  | _ -> None
                end
              | Ir.Mul -> begin
                  match (go x, const_of t.du y) with
                  | Some a1, Some c -> Some (a1 * c)
                  | _ -> (
                      match (const_of t.du x, go y) with
                      | Some c, Some a2 -> Some (a2 * c)
                      | _ -> None)
                end
              | Ir.Shl -> begin
                  match (go x, const_of t.du y) with
                  | Some a1, Some c -> Some (a1 lsl c)
                  | _ -> None
                end
              | Ir.Sdiv | Ir.Srem | Ir.And | Ir.Or | Ir.Xor | Ir.Lshr
              | Ir.Ashr ->
                  None
            end
          | _ -> None
        end
      | Ir.Const _ | Ir.Constf _ | Ir.Arg _ | Ir.Sym _ -> None
  in
  go v

let analyze (f : Ir.func) =
  let du = Defuse.build f in
  let loop_info = Loops.analyze f in
  let ivs = Hashtbl.create 8 in
  List.iter
    (fun loop ->
      Hashtbl.replace ivs (loop : Loops.loop).header
        (find_ivs f du loop_info loop))
    (Loops.loops loop_info);
  { f; du; loop_info; ivs }

let func t = t.f
let loops t = t.loop_info
let du t = t.du

let ivs_of_loop t (loop : Loops.loop) =
  try Hashtbl.find t.ivs loop.header with Not_found -> []

(* The header runs the test once per iteration and once more to leave,
   so with a single exit every entry runs [ceil ((B - I) / step)]
   iterations ([B + 1] for [<=]); a preheader that only branches to the
   header makes each of its runs one entry. *)
let trip_count t (loop : Loops.loop) =
  let block = Ir.find_block t.f in
  let inside = Loops.contains loop in
  let stays_inside l =
    l = loop.header
    ||
    match (block l).term with
    | Ir.Ret _ | Ir.Unreachable -> false
    | term -> List.for_all inside (Ir.successors term)
  in
  let entered_once =
    match loop.preheader with
    | Some p -> (block p).term = Ir.Br loop.header
    | None -> false
  in
  match (block loop.header).term with
  | Ir.Cbr (Ir.Reg c, body, exit)
    when inside body && (not (inside exit)) && entered_once
         && List.for_all stays_inside loop.body -> begin
      match Defuse.def t.du c with
      | Some { kind = Ir.Icmp ((Ir.Lt | Ir.Le) as cmp, Ir.Reg v, bound); _ }
        -> begin
          match List.find_opt (fun iv -> iv.phi_id = v) (ivs_of_loop t loop) with
          | Some iv when iv.step > 0 -> begin
              match (const_of t.du iv.init, const_of t.du bound) with
              | Some init, Some bound ->
                  let span = bound - init + if cmp = Ir.Le then 1 else 0 in
                  Some (if span <= 0 then 0 else (span + iv.step - 1) / iv.step)
              | _ -> None
            end
          | _ -> None
        end
      | _ -> None
    end
  | _ -> None

let strided_accesses t (loop : Loops.loop) =
  let ivs = ivs_of_loop t loop in
  let in_this_loop blk =
    match Loops.loop_of_block t.loop_info blk with
    | Some l -> l.header = loop.header
    | None -> false
  in
  let classify_ptr ptr =
    (* Pointer must be a gep whose index is affine in some IV of this loop
       and whose base is loop-invariant. *)
    match ptr with
    | Ir.Reg id -> begin
        match Defuse.def t.du id with
        | Some { kind = Ir.Gep { base; index; scale; offset }; _ }
          when is_loop_invariant t loop base ->
            List.find_map
              (fun iv ->
                match stride_coeff t loop iv.phi_id index with
                | Some a when a <> 0 ->
                    Some (base, offset, iv, a * iv.step * scale)
                | _ -> None)
              ivs
        | _ -> None
      end
    | Ir.Const _ | Ir.Constf _ | Ir.Arg _ | Ir.Sym _ -> None
  in
  List.concat_map
    (fun blk_label ->
      if not (in_this_loop blk_label) then []
      else
        let blk = Ir.find_block t.f blk_label in
        List.filter_map
          (fun (i : Ir.instr) ->
            let make ptr is_store access_size =
              match classify_ptr ptr with
              | Some (base, gep_offset, iv, byte_stride) ->
                  Some
                    {
                      instr_id = i.id;
                      block = blk_label;
                      is_store;
                      access_size;
                      base;
                      gep_offset;
                      iv;
                      byte_stride;
                    }
              | None -> None
            in
            match i.kind with
            | Ir.Load { ptr; size; _ } -> make ptr false size
            | Ir.Store { ptr; size; _ } -> make ptr true size
            | _ -> None)
          blk.instrs)
    loop.body
