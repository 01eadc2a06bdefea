(* The reference engine: a tree-walking interpreter, the oracle the
   compiled engine ({!Compile}) is diffed against.

   A function is prepared the first time it is called: its blocks and
   instructions become arrays, and every call site is bound once. A
   direct call is bound to its callee's prepared body, a libc call to
   the backend's allocation hook, and any other call to the handler the
   backend's dispatcher returns for the callee's name, as the compiled
   engine binds them. Whether loads and stores call the backend's access
   hook and tag telemetry sites is decided once per run. The rest is
   dispatched on every execution: each operand is matched (a constant
   is boxed), each branch hashes its target label and each phi scans
   its arms for the predecessor's label. *)

exception Trap of string

let trap fmt = Format.kasprintf (fun s -> raise (Trap s)) fmt

type result = { ret : int; cycles : int; instrs_executed : int }

type v = I of int | F of float

let as_int = function I n -> n | F _ -> trap "expected int, got float"
let as_float = function F x -> x | I _ -> trap "expected float, got int"

(* A prepared function. A call instruction keeps its argument operands
   as an array and its site, bound by [resolve], so running it neither
   matches the callee's name nor builds an argument list. *)
type pinstr = {
  pi : Ir.instr;
  pargs : Ir.value array; (* a call's argument operands; [||] otherwise *)
  mutable psite : site;
}

(* What a call instruction runs. *)
and site =
  | Not_a_call (* also a call's site until [prepare] binds it *)
  | Direct of pfunc (* a defined IR function *)
  | Libc of (int array -> int) (* malloc, calloc, realloc or free *)
  | Handler of (int array -> int option)
      (* what the backend's dispatcher returned for the callee's name;
         [None] at run time falls back to the IR function of that name *)

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
  hooked : bool; (* [on_access] is not {!Backend.no_access} *)
  tagged : bool; (* the sink is active: [set_site] is not a no-op *)
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

(* A call site's binding. The backend's dispatcher is applied to the
   callee's name here, once per site. *)
let rec resolve st callee =
  let b = st.backend in
  match callee with
  | "malloc" -> Libc (fun a -> b.Backend.malloc a.(0))
  | "calloc" -> Libc (fun a -> b.Backend.malloc (a.(0) * a.(1)))
  | "realloc" -> Libc (fun a -> b.Backend.realloc a.(0) a.(1))
  | "free" ->
      Libc
        (fun a ->
          b.Backend.free a.(0);
          0)
  | _
    when Intrinsics.classify callee = Intrinsics.Unknown
         && List.exists (fun (f : Ir.func) -> f.fname = callee) st.m.Ir.funcs
    ->
      Direct (prepare st callee)
  | _ -> Handler (b.Backend.intrinsic callee)

and prepare st fname =
  match Hashtbl.find_opt st.prepared fname with
  | Some p -> p
  | None ->
      let f =
        try Ir.find_func st.m fname
        with Not_found -> trap "unknown function %s" fname
      in
      let pinstr (i : Ir.instr) =
        let pargs =
          match i.kind with
          | Ir.Call { args; _ } -> Array.of_list args
          | _ -> [||]
        in
        { pi = i; pargs; psite = Not_a_call }
      in
      let blocks =
        Array.of_list
          (List.map
             (fun (b : Ir.block) ->
               {
                 plabel = b.label;
                 pinstrs = Array.of_list (List.map pinstr b.instrs);
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
      (* Publish before resolving call sites so recursion (direct or
         mutual) terminates; each direct callee is prepared at most
         once. *)
      Hashtbl.replace st.prepared fname p;
      Array.iter
        (fun blk ->
          Array.iter
            (fun pin ->
              match pin.pi.Ir.kind with
              | Ir.Call { callee; _ } -> pin.psite <- resolve st callee
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

(* A libc function's or a handler's operands, read in order. Runtime
   calls take at most three, which get an array literal: an inline
   minor-heap allocation, where [Array.map] costs a closure and a C
   call on every guard. *)
and eval_ints st env args = function
  | [| a0 |] -> [| eval_int st env args a0 |]
  | [| a0; a1 |] ->
      let x0 = eval_int st env args a0 in
      let x1 = eval_int st env args a1 in
      [| x0; x1 |]
  | [| a0; a1; a2 |] ->
      let x0 = eval_int st env args a0 in
      let x1 = eval_int st env args a1 in
      let x2 = eval_int st env args a2 in
      [| x0; x1; x2 |]
  | ops -> Array.map (eval_int st env args) ops

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

and call_function st ~dactuals fname (actuals : v array) =
  call_prepared st ~dactuals (prepare st fname) actuals

and call_prepared st ~dactuals p (actuals : v array) =
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

and exec_blocks st p env args ~dargs =
  let cost = st.backend.Backend.cost in
  let clock = st.backend.Backend.clock in
  let store = st.backend.Backend.store in
  let tel = st.backend.Backend.telemetry in
  let on_access = st.backend.Backend.on_access in
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
            if st.tagged then
              Telemetry.Sink.set_site tel ~func:fname ~instr:i.id;
            if st.hooked then on_access ~addr ~size ~write:false;
            Memsim.Clock.tick clock cost.Memsim.Cost_model.local_access;
            if is_float then F (Memsim.Memstore.load_float store ~addr)
            else I (Memsim.Memstore.load store ~addr ~size)
        | Ir.Store { ptr; size; is_float; v } ->
            let addr = eval_int st env args ptr in
            if st.tagged then
              Telemetry.Sink.set_site tel ~func:fname ~instr:i.id;
            if st.hooked then on_access ~addr ~size ~write:true;
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
        | Ir.Call { callee; _ } -> (
            (* Guard/chunk intrinsics executed by the runtime are
               attributed to this call site (function + instruction id)
               via the sink — the guard-site hotspot table's key. *)
            if st.tagged then
              Telemetry.Sink.set_site tel ~func:fname ~instr:i.id;
            let dactuals =
              match st.shadow with
              | Some sh ->
                  (* Non-IR callees produce depth-0 results; an IR
                     callee's returning block overwrites this through
                     the shadow's return slot. *)
                  Shadow.set_ret_depth sh 0;
                  Array.map dval pin.pargs
              | None -> [||]
            in
            match pin.psite with
            | Direct target ->
                let actuals = Array.map (eval st env args) pin.pargs in
                Memsim.Clock.tick clock 5 (* call overhead *);
                call_prepared st ~dactuals target actuals
            | Libc hook -> I (hook (eval_ints st env args pin.pargs))
            | Handler h -> (
                let a = eval_ints st env args pin.pargs in
                match h a with
                | Some r -> I r
                | None ->
                    if String.length callee > 0 && callee.[0] = '!' then
                      trap "unknown runtime hook %s" callee
                    else begin
                      Memsim.Clock.tick clock 5 (* call overhead *);
                      call_function st ~dactuals callee
                        (Array.map (fun n -> I n) a)
                    end)
            | Not_a_call -> assert false)
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
      hooked = not (backend.Backend.on_access == Backend.no_access);
      tagged = Telemetry.Sink.is_active backend.Backend.telemetry;
      stack_ptr = stack_base;
      fuel;
      instrs = 0;
      depth = 0;
    }
  in
  let actuals = Array.of_list (List.map (fun n -> I n) args) in
  let ret = call_function st ~dactuals:[||] entry actuals in
  {
    ret = as_int ret;
    cycles = Memsim.Clock.cycles backend.Backend.clock;
    instrs_executed = st.instrs;
  }
