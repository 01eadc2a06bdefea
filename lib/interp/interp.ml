exception Trap of string

let trap fmt = Format.kasprintf (fun s -> raise (Trap s)) fmt

type result = { ret : int; cycles : int; instrs_executed : int }

type v = I of int | F of float

let as_int = function I n -> n | F _ -> trap "expected int, got float"
let as_float = function F x -> x | I _ -> trap "expected float, got int"

(* Prepared (array-indexed) function representation for execution speed.
   Call instructions carry a resolution slot: direct calls to defined IR
   functions are bound to their prepared representation once, at prepare
   time, so the hot path never consults the name table again. *)
type pinstr = { pi : Ir.instr; mutable ptarget : pfunc option }

and pblock = {
  plabel : string;
  pinstrs : pinstr array;
  pterm : Ir.terminator;
  pcell : int ref;
      (* the block's profile counter, resolved at prepare time; a scratch
         cell nobody reads when the run is not profiled *)
}

and pfunc = {
  src : Ir.func;
  blocks : pblock array;
  index : (string, int) Hashtbl.t;
}

type state = {
  backend : Backend.t;
  m : Ir.modul;
  prepared : (string, pfunc) Hashtbl.t;
  globals : (string, int) Hashtbl.t;
  profile : Profile.t option;
  shadow : Shadow.t option;
      (* when set, a dependent-load depth is threaded beside every value
         and recorded at each access site — the dynamic audit of the
         static shape analysis; None costs one branch per instruction *)
  mutable stack_ptr : int;
  mutable fuel : int;
  mutable instrs : int;
  mutable depth : int;
}

let max_call_depth = 10_000

let global_base = 1 lsl 28
let stack_base = 1 lsl 30

let layout_globals (m : Ir.modul) =
  let globals = Hashtbl.create 8 in
  let cursor = ref global_base in
  List.iter
    (fun (name, size) ->
      Hashtbl.replace globals name !cursor;
      cursor := !cursor + ((size + 15) land lnot 15))
    (List.rev m.Ir.globals);
  globals

let rec prepare st fname =
  match Hashtbl.find_opt st.prepared fname with
  | Some p -> p
  | None ->
      let f =
        try Ir.find_func st.m fname
        with Not_found -> trap "unknown function %s" fname
      in
      let blocks =
        Array.of_list
          (List.map
             (fun (b : Ir.block) ->
               {
                 plabel = b.label;
                 pinstrs =
                   Array.of_list
                     (List.map (fun i -> { pi = i; ptarget = None }) b.instrs);
                 pterm = b.term;
                 pcell =
                   (match st.profile with
                   | Some prof -> Profile.cell prof ~func:fname ~block:b.label
                   | None -> ref 0);
               })
             f.blocks)
      in
      let index = Hashtbl.create 16 in
      Array.iteri (fun i b -> Hashtbl.replace index b.plabel i) blocks;
      let p = { src = f; blocks; index } in
      (* Publish before resolving call targets so recursion (direct or
         mutual) terminates; each direct callee is prepared at most
         once. *)
      Hashtbl.replace st.prepared fname p;
      Array.iter
        (fun blk ->
          Array.iter
            (fun pin ->
              match pin.pi.Ir.kind with
              | Ir.Call { callee; _ }
                when Intrinsics.classify callee = Intrinsics.Unknown
                     && List.exists
                          (fun (f : Ir.func) -> f.fname = callee)
                          st.m.Ir.funcs ->
                  pin.ptarget <- Some (prepare st callee)
              | _ -> ())
            blk.pinstrs)
        blocks;
      p

(* Ticks for non-memory instructions are batched per block for speed. *)

let rec eval st env args = function
  | Ir.Const n -> I n
  | Ir.Constf x -> F x
  | Ir.Reg id -> env.(id)
  | Ir.Arg i -> args.(i)
  | Ir.Sym s -> (
      match Hashtbl.find_opt st.globals s with
      | Some addr -> I addr
      | None -> trap "unknown global %s" s)

and eval_int st env args v = as_int (eval st env args v)
and eval_float st env args v = as_float (eval st env args v)

and exec_binop op a b =
  match (op : Ir.binop) with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Sdiv -> if b = 0 then trap "division by zero" else a / b
  | Srem -> if b = 0 then trap "remainder by zero" else a mod b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> a lsl b
  | Lshr -> a lsr b
  | Ashr -> a asr b

and exec_fbinop op a b =
  match (op : Ir.fbinop) with
  | Fadd -> a +. b
  | Fsub -> a -. b
  | Fmul -> a *. b
  | Fdiv -> a /. b

and exec_icmp op a b =
  let c =
    match (op : Ir.cmp) with
    | Eq -> a = b
    | Ne -> a <> b
    | Lt -> a < b
    | Le -> a <= b
    | Gt -> a > b
    | Ge -> a >= b
  in
  if c then 1 else 0

and exec_fcmp op (a : float) (b : float) =
  let c =
    match (op : Ir.cmp) with
    | Eq -> a = b
    | Ne -> a <> b
    | Lt -> a < b
    | Le -> a <= b
    | Gt -> a > b
    | Ge -> a >= b
  in
  if c then 1 else 0

and call_function st ?(dactuals = [||]) fname (actuals : v array) =
  call_prepared st ~dactuals (prepare st fname) actuals

and call_prepared st ?(dactuals = [||]) p (actuals : v array) =
  let f = p.src in
  let fname = f.fname in
  if Array.length actuals <> f.nparams then
    trap "%s expects %d arguments, got %d" fname f.nparams
      (Array.length actuals);
  st.depth <- st.depth + 1;
  if st.depth > max_call_depth then trap "call depth exceeded (recursion?)";
  (* Top-of-stack calls become phase spans in the telemetry trace: the
     entry function and its direct callees are the "interpreter phases"
     (setup, kernels, teardown) without per-helper event blowup. *)
  let tel = st.backend.Backend.telemetry in
  let span_it = st.depth <= 2 && Telemetry.Sink.is_active tel in
  let t0 = if span_it then Telemetry.Sink.timestamp tel else 0 in
  let env = Array.make f.next_id (I 0) in
  let saved_sp = st.stack_ptr in
  let ret = exec_blocks st p env actuals ~dargs:dactuals in
  if span_it then Telemetry.Sink.span tel ~name:fname ~cat:"call" ~start:t0 ();
  st.stack_ptr <- saved_sp;
  st.depth <- st.depth - 1;
  ret

and exec_call st ?(dactuals = [||]) env args callee actual_values =
  (* Non-IR callees produce depth-0 results; an IR callee's returning
     block overwrites this through the shadow's return slot. *)
  (match st.shadow with
  | Some sh -> Shadow.set_ret_depth sh 0
  | None -> ());
  (* libc allocation interface goes through the backend hooks; runtime
     intrinsics through the backend's dispatcher; everything else must be
     an IR function. *)
  let b = st.backend in
  match callee with
  | "malloc" -> I (b.Backend.malloc (as_int actual_values.(0)))
  | "calloc" ->
      I (b.Backend.malloc (as_int actual_values.(0) * as_int actual_values.(1)))
  | "realloc" ->
      I (b.Backend.realloc (as_int actual_values.(0)) (as_int actual_values.(1)))
  | "free" ->
      b.Backend.free (as_int actual_values.(0));
      I 0
  | _ -> begin
      let int_args = Array.map as_int actual_values in
      match b.Backend.intrinsic callee int_args with
      | Some r -> I r
      | None ->
          if String.length callee > 0 && callee.[0] = '!' then
            trap "unknown runtime hook %s" callee
          else begin
            Memsim.Clock.tick b.Backend.clock 5 (* call overhead *);
            call_function st ~dactuals callee actual_values
          end
    end
  [@@warning "-27"]

and exec_blocks st p env args ~dargs =
  let cost = st.backend.Backend.cost in
  let clock = st.backend.Backend.clock in
  let store = st.backend.Backend.store in
  let tel = st.backend.Backend.telemetry in
  let fname = p.src.fname in
  (* Shadow depth environment: one slot per register, mirroring [env].
     Allocated only when the validator is on. *)
  let denv =
    match st.shadow with
    | Some _ -> Array.make p.src.next_id 0
    | None -> [||]
  in
  let dval v =
    match v with
    | Ir.Reg id -> denv.(id)
    | Ir.Arg i -> if i < Array.length dargs then dargs.(i) else 0
    | _ -> 0
  in
  (* Iterative block dispatch: loops run for millions of iterations, so
     branch handling must not grow the OCaml stack. *)
  let ret = ref (I 0) in
  let cur = ref 0 in
  let prev = ref "<entry>" in
  let running = ref true in
  while !running do
    let bidx = !cur in
    let prev_label = !prev in
    let blk = p.blocks.(bidx) in
    incr blk.pcell;
    let n = Array.length blk.pinstrs in
    st.fuel <- st.fuel - (n + 1);
    if st.fuel < 0 then trap "out of fuel (infinite loop?)";
    st.instrs <- st.instrs + n + 1;
    (* Straight-line cost: ALU/branch instructions retire ~4 per cycle on
       the modelled 4-wide core; memory and calls add their own charges
       below. *)
    Memsim.Clock.tick clock ((n + 4) / 4);
    for k = 0 to n - 1 do
      let pin = blk.pinstrs.(k) in
      let i = pin.pi in
      let result =
        match i.kind with
        | Ir.Binop (op, a, b) ->
            I (exec_binop op (eval_int st env args a) (eval_int st env args b))
        | Ir.Fbinop (op, a, b) ->
            F
              (exec_fbinop op (eval_float st env args a)
                 (eval_float st env args b))
        | Ir.Icmp (op, a, b) ->
            I (exec_icmp op (eval_int st env args a) (eval_int st env args b))
        | Ir.Fcmp (op, a, b) ->
            I
              (exec_fcmp op (eval_float st env args a)
                 (eval_float st env args b))
        | Ir.Si_to_fp a -> F (float_of_int (eval_int st env args a))
        | Ir.Fp_to_si a -> I (int_of_float (eval_float st env args a))
        | Ir.Load { ptr; size; is_float } ->
            let addr = eval_int st env args ptr in
            Telemetry.Sink.set_site tel ~func:fname ~instr:i.id;
            st.backend.Backend.on_access ~addr ~size ~write:false;
            Memsim.Clock.tick clock cost.Memsim.Cost_model.local_access;
            if is_float then F (Memsim.Memstore.load_float store ~addr)
            else I (Memsim.Memstore.load store ~addr ~size)
        | Ir.Store { ptr; size; is_float; v } ->
            let addr = eval_int st env args ptr in
            Telemetry.Sink.set_site tel ~func:fname ~instr:i.id;
            st.backend.Backend.on_access ~addr ~size ~write:true;
            Memsim.Clock.tick clock cost.Memsim.Cost_model.local_access;
            (if is_float then
               Memsim.Memstore.store_float store ~addr
                 (eval_float st env args v)
             else
               Memsim.Memstore.store store ~addr ~size
                 (eval_int st env args v));
            I 0
        | Ir.Gep { base; index; scale; offset } ->
            I
              (eval_int st env args base
              + (eval_int st env args index * scale)
              + offset)
        | Ir.Alloca bytes ->
            let addr = st.stack_ptr in
            st.stack_ptr <- st.stack_ptr + ((bytes + 15) land lnot 15);
            I addr
        | Ir.Call { callee; args = call_args } -> (
            let actuals =
              Array.of_list (List.map (eval st env args) call_args)
            in
            (* Guard/chunk intrinsics executed by the runtime are
               attributed to this call site (function + instruction id)
               via the sink — the guard-site hotspot table's key. *)
            Telemetry.Sink.set_site tel ~func:fname ~instr:i.id;
            let dactuals =
              match st.shadow with
              | Some _ -> Array.of_list (List.map dval call_args)
              | None -> [||]
            in
            match pin.ptarget with
            | Some target ->
                (* Direct call to a defined IR function, bound at prepare
                   time: no per-call name-table lookup. *)
                Memsim.Clock.tick clock 5 (* call overhead *);
                call_prepared st ~dactuals target actuals
            | None -> exec_call st ~dactuals env args callee actuals)
        | Ir.Phi incoming -> begin
            match
              List.find_opt (fun (l, _) -> l = prev_label) incoming
            with
            | Some (_, v) -> eval st env args v
            | None -> trap "%s: phi has no arm for predecessor %s" fname
                        prev_label
          end
        | Ir.Select (c, a, b) ->
            if eval_int st env args c <> 0 then eval st env args a
            else eval st env args b
      in
      env.(i.id) <- result;
      (* Shadow depth transfer, mirroring the static chain semantics:
         loads add a hop, gep/add/sub propagate, phi/select take the
         chosen arm, calls carry the callee's return depth. Recorded at
         every access against the address's depth. *)
      match st.shadow with
      | None -> ()
      | Some sh ->
          let d =
            match i.kind with
            | Ir.Load { ptr; is_float; _ } ->
                let pd = dval ptr in
                Shadow.record sh ~func:fname ~instr:i.id ~depth:pd;
                if is_float then 0 else pd + 1
            | Ir.Store { ptr; _ } ->
                Shadow.record sh ~func:fname ~instr:i.id ~depth:(dval ptr);
                0
            | Ir.Gep { base; _ } -> dval base
            | Ir.Binop ((Ir.Add | Ir.Sub), a, b) -> max (dval a) (dval b)
            | Ir.Phi incoming -> (
                match
                  List.find_opt (fun (l, _) -> l = prev_label) incoming
                with
                | Some (_, v) -> dval v
                | None -> 0)
            | Ir.Select (c, a, b) ->
                if eval_int st env args c <> 0 then dval a else dval b
            | Ir.Call _ -> Shadow.ret_depth sh
            | _ -> 0
          in
          denv.(i.id) <- min Shadow.depth_cap d
    done;
    match blk.pterm with
    | Ir.Br l ->
        prev := blk.plabel;
        cur := Hashtbl.find p.index l
    | Ir.Cbr (c, t, e) ->
        let target = if eval_int st env args c <> 0 then t else e in
        prev := blk.plabel;
        cur := Hashtbl.find p.index target
    | Ir.Ret None ->
        (match st.shadow with
        | Some sh -> Shadow.set_ret_depth sh 0
        | None -> ());
        ret := I 0;
        running := false
    | Ir.Ret (Some v) ->
        (match st.shadow with
        | Some sh -> Shadow.set_ret_depth sh (dval v)
        | None -> ());
        ret := eval st env args v;
        running := false
    | Ir.Unreachable -> trap "%s: reached unreachable in %s" fname blk.plabel
  done;
  !ret

let run ?profile ?shadow ?(fuel = 2_000_000_000) ?(args = []) backend m ~entry
    =
  Verifier.check_module m;
  let st =
    {
      backend;
      m;
      prepared = Hashtbl.create 8;
      globals = layout_globals m;
      profile;
      shadow;
      stack_ptr = stack_base;
      fuel;
      instrs = 0;
      depth = 0;
    }
  in
  let actuals = Array.of_list (List.map (fun n -> I n) args) in
  let ret = call_function st entry actuals in
  {
    ret = as_int ret;
    cycles = Memsim.Clock.cycles backend.Backend.clock;
    instrs_executed = st.instrs;
  }
