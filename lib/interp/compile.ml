(* Compiled closure-based execution engine.

   The tree-walking interpreter ({!Interp}) re-dispatches on instruction
   and operand variants for every executed instruction. This engine does
   all of that dispatch once, at module-compile time: each IR function is
   lowered to OCaml closures with

   - SSA operand slots resolved to unboxed array indices (a per-function
     int/float type assignment splits the register file into an [int
     array] and a [float array], so the hot loop neither allocates nor
     pattern-matches boxed values);
   - binop/cmp/conversion cases selected per site (one specialized
     closure per instruction instead of a [match] per execution);
   - global symbols resolved to their laid-out addresses;
   - callee names resolved per call site: libc allocation hooks, direct
     IR calls (bound to the callee's compiled body), or the handler the
     backend's intrinsic dispatcher returns for the name, asked for once
     per site when the module compiles — the runtime never re-classifies
     a name — with register and constant arguments read inline, not
     through closures;
   - a gep that feeds a load or store fused into the access's closure,
     and with it the guard, chunk or page call that the TrackFM passes
     put between the two (or right before a plain access): one closure
     computes the address, calls the site's handler with the address
     and its constant arguments, and performs the access;
   - register frames reused: each function keeps one frame per live
     activation depth and zero-fills it when the activation returns, so
     a call allocates only its argument arrays, and for the calls hot
     loops make (one int argument, or two with a float parameter) those
     are array literals (inline minor-heap allocations, not
     [caml_make_vect] calls).

   Memory traffic goes through {!Memsim.Memstore}'s own accessors, the
   same ones the interpreter calls; the store's direct-mapped page cache
   finds a resident page without hashing.

   Blocks are threaded. Each block compiles to one entry closure that
   charges the block (profile cell, fuel, clock tick), runs its body and
   tail-calls a successor's entry; OCaml guarantees those tail calls, so
   a loop runs in constant OCaml stack and the OCaml stack grows by one
   call chain per IR call, not per block. Each CFG edge carries its
   successor's phis for that predecessor as moves, resolved at compile
   time and applied in phi order, which is the interpreter's sequential
   semantics (a phi reads what the block's earlier phis just wrote).

   The engine runs only verified IR: [run] calls
   {!Verifier.check_module} first, as {!Interp.run} does, so every phi
   leads its block with exactly one arm per predecessor, the entry
   block has none, every branch target exists and every argument index
   is in range. Nothing below handles a module that breaks those rules.

   Everything observable is kept bit-identical to the interpreter: the
   same clock ticks in the same order (straight-line batching,
   local-access charges, call overhead), the same backend hooks
   ([on_access], allocation, intrinsics — hence the same guard, fault,
   Shenango-yield and span behaviour), the same telemetry site
   attribution, the same fuel and instruction accounting. CI and the
   test suite enforce that equivalence differentially, which is why the
   interpreter stays around as the oracle.

   The type assignment is conservative: any slot or operand whose
   static type disagrees with its use compiles to a closure that raises
   the same {!Interp.Trap} the interpreter would raise when that
   instruction executes — well-typed programs never reach those. *)

let trap fmt = Format.kasprintf (fun s -> raise (Interp.Trap s)) fmt

(* Test-only fault injection: when set, [Add] miscompiles (off-by-one).
   The differential oracle in the test suite flips this to prove a
   miscompiled closure cannot survive the interp/compiled diff. *)
let test_miscompile = ref false

type ty = TInt | TFloat

(* Per-call activation record. Frames are reused across calls (see
   [take_frame]); only the arguments change per call. *)
type frame = {
  ienv : int array;
  fenv : float array;
  mutable iargs : int array;
  mutable fargs : float array;
}

type state = {
  (* Every block charges its instruction units here before it runs, so
     the units spent are the run's [instrs_executed]. *)
  mutable fuel : int;
  mutable depth : int;
  mutable stack_ptr : int;
  (* Return-value slots, written by the callee's [Ret] terminator and
     read by the caller when the callee's entry closure returns. *)
  mutable iret : int;
  mutable fret : float;
}

(* A block's entry closure. Edges reach their successor through this
   record, patched once every block of the function is compiled, so a
   back edge needs no forward reference. *)
type entry = { mutable enter : frame -> unit }

type cfunc = {
  cf_src : Ir.func;
  cf_params : ty array; (* mutated during inference, read at compile *)
  mutable cf_ret : ty;
  mutable cf_has_floats : bool; (* any float-typed register slot *)
  mutable cf_enter : frame -> unit; (* the entry block's entry closure *)
  (* The function's frames: [cf_frames.(0 .. cf_live - 1)] belong to its
     live activations, innermost last; the rest are free and zero-filled
     ([no_frame] where none has been allocated yet). *)
  mutable cf_frames : frame array;
  mutable cf_live : int;
}

type ctx = {
  st : state;
  backend : Backend.t;
  m : Ir.modul;
  globals : (string, int) Hashtbl.t;
  cfuncs : (string, cfunc) Hashtbl.t;
  reg_tys : (string, ty array) Hashtbl.t;
  profile : Profile.t option;
}

(* Mirrors the interpreter's [resolve]: only names the intrinsic
   table knows nothing about resolve to defined IR functions. *)
let is_direct_call ctx callee =
  Intrinsics.classify callee = Intrinsics.Unknown
  && Hashtbl.mem ctx.cfuncs callee

(* -- static int/float type assignment ------------------------------------

   Monotone fixpoint over the module: every slot starts [TInt] and is
   promoted to [TFloat] on evidence (float-producing instructions, float
   phi/select arms, float returns and float actuals flowing into
   parameters). Promotion-only, so it terminates. *)

let value_ty ctx (f : Ir.func) rtys = function
  | Ir.Const _ | Ir.Sym _ -> TInt
  | Ir.Constf _ -> TFloat
  | Ir.Reg id -> rtys.(id)
  | Ir.Arg i -> (Hashtbl.find ctx.cfuncs f.Ir.fname).cf_params.(i)

let infer_types ctx =
  let changed = ref true in
  let promote_reg rtys id =
    if rtys.(id) = TInt then begin
      rtys.(id) <- TFloat;
      changed := true
    end
  in
  while !changed do
    changed := false;
    List.iter
      (fun (f : Ir.func) ->
        let cf = Hashtbl.find ctx.cfuncs f.fname in
        let rtys = Hashtbl.find ctx.reg_tys f.fname in
        let vt = value_ty ctx f rtys in
        List.iter
          (fun (b : Ir.block) ->
            List.iter
              (fun (i : Ir.instr) ->
                match i.kind with
                | Ir.Fbinop _ | Ir.Si_to_fp _ -> promote_reg rtys i.id
                | Ir.Load { is_float = true; _ } -> promote_reg rtys i.id
                | Ir.Phi incoming ->
                    if List.exists (fun (_, v) -> vt v = TFloat) incoming
                    then promote_reg rtys i.id
                | Ir.Select (_, a, b) ->
                    if vt a = TFloat || vt b = TFloat then
                      promote_reg rtys i.id
                | Ir.Call { callee; args } when is_direct_call ctx callee ->
                    let target = Hashtbl.find ctx.cfuncs callee in
                    List.iteri
                      (fun j a ->
                        if
                          j < Array.length target.cf_params
                          && vt a = TFloat
                          && target.cf_params.(j) = TInt
                        then begin
                          target.cf_params.(j) <- TFloat;
                          changed := true
                        end)
                      args;
                    if target.cf_ret = TFloat then promote_reg rtys i.id
                | _ -> ())
              b.instrs;
            match b.term with
            | Ir.Ret (Some v) ->
                if vt v = TFloat && cf.cf_ret = TInt then begin
                  cf.cf_ret <- TFloat;
                  changed := true
                end
            | _ -> ())
          f.blocks)
      ctx.m.Ir.funcs
  done;
  List.iter
    (fun (f : Ir.func) ->
      let cf = Hashtbl.find ctx.cfuncs f.fname in
      let rtys = Hashtbl.find ctx.reg_tys f.fname in
      cf.cf_has_floats <- Array.exists (fun t -> t = TFloat) rtys)
    ctx.m.Ir.funcs

(* -- operand readers -----------------------------------------------------

   Every operand first compiles to a *shape*. The hot shapes — constant,
   register slot, argument slot — are exposed as data so the instruction
   compilers below can fuse the read straight into the instruction
   closure (a direct array index instead of a nested closure call on the
   execution path). [IFn]/[FFn] is the general fallback and carries the
   type-mismatch traps and unknown globals, so reading one always
   raises. [read_int]/[read_float] switch
   on a shape inline (a jump on its tag, no closure call), and
   [iread]/[fread] turn a shape back into a plain reader for the cold
   consumers. *)

type ishape =
  | IConst of int
  | ISlot of int (* fr.ienv.(i) *)
  | IArg of int (* fr.iargs.(i) *)
  | IFn of (frame -> int)

type fshape =
  | FConst of float
  | FSlot of int (* fr.fenv.(i) *)
  | FArg of int (* fr.fargs.(i) *)
  | FFn of (frame -> float)

let int_trap : frame -> int = fun _ -> trap "expected int, got float"
let float_trap : frame -> float = fun _ -> trap "expected float, got int"

let ishape ctx (f : Ir.func) rtys v : ishape =
  match v with
  | Ir.Const n -> IConst n
  | Ir.Constf _ -> IFn int_trap
  | Ir.Reg id -> if rtys.(id) = TInt then ISlot id else IFn int_trap
  | Ir.Arg i ->
      if (Hashtbl.find ctx.cfuncs f.fname).cf_params.(i) = TInt then IArg i
      else IFn int_trap
  | Ir.Sym s -> (
      match Hashtbl.find_opt ctx.globals s with
      | Some addr -> IConst addr
      | None -> IFn (fun _ -> trap "unknown global %s" s))

let fshape ctx (f : Ir.func) rtys v : fshape =
  match v with
  | Ir.Constf x -> FConst x
  | Ir.Const _ | Ir.Sym _ -> FFn float_trap
  | Ir.Reg id -> if rtys.(id) = TFloat then FSlot id else FFn float_trap
  | Ir.Arg i ->
      if (Hashtbl.find ctx.cfuncs f.fname).cf_params.(i) = TFloat then FArg i
      else FFn float_trap

let iread : ishape -> frame -> int = function
  | IConst n -> fun _ -> n
  | ISlot i -> fun fr -> Array.unsafe_get fr.ienv i
  | IArg i -> fun fr -> Array.unsafe_get fr.iargs i
  | IFn g -> g

let fread : fshape -> frame -> float = function
  | FConst x -> fun _ -> x
  | FSlot i -> fun fr -> Array.unsafe_get fr.fenv i
  | FArg i -> fun fr -> Array.unsafe_get fr.fargs i
  | FFn g -> g

let[@inline] read_int fr = function
  | IConst n -> n
  | ISlot i -> Array.unsafe_get fr.ienv i
  | IArg i -> Array.unsafe_get fr.iargs i
  | IFn g -> g fr

let[@inline] read_float fr = function
  | FConst x -> x
  | FSlot i -> Array.unsafe_get fr.fenv i
  | FArg i -> Array.unsafe_get fr.fargs i
  | FFn g -> g fr

(* -- fused arithmetic and comparison closures ----------------------------

   Without flambda, a generic [lift2 op sa sb] would keep the operator
   an indirect call per executed instruction, so the hot operators are
   monomorphized by hand: for each one, the shape pairs that programs
   run hot get a closure that reads both operands inline (pure loads
   and ALU ops, no nested calls, no float boxing). Other shapes fall
   back to reader closures — same behaviour, one extra call. A division
   by a nonzero constant tests its divisor here, once; any other
   division tests it on every execution and traps on zero. *)

let compile_binop op sa sb id : frame -> unit =
  let gen op2 =
    let a = iread sa and b = iread sb in
    fun fr -> Array.unsafe_set fr.ienv id (op2 (a fr) (b fr))
  in
  match (op, sa, sb) with
  | Ir.Add, _, _ when !test_miscompile ->
      (* Deliberate off-by-one so the differential oracle has something
         to catch; see [test_miscompile]. *)
      gen (fun a b -> a + b + 1)
  | Ir.Add, ISlot i, ISlot j ->
      fun fr ->
        Array.unsafe_set fr.ienv id
          (Array.unsafe_get fr.ienv i + Array.unsafe_get fr.ienv j)
  | Ir.Add, ISlot i, IConst c ->
      fun fr -> Array.unsafe_set fr.ienv id (Array.unsafe_get fr.ienv i + c)
  | Ir.Add, IConst c, ISlot j ->
      fun fr -> Array.unsafe_set fr.ienv id (c + Array.unsafe_get fr.ienv j)
  | Ir.Add, _, _ -> gen ( + )
  | Ir.Sub, ISlot i, ISlot j ->
      fun fr ->
        Array.unsafe_set fr.ienv id
          (Array.unsafe_get fr.ienv i - Array.unsafe_get fr.ienv j)
  | Ir.Sub, _, _ -> gen ( - )
  | Ir.Mul, ISlot i, IConst c ->
      fun fr -> Array.unsafe_set fr.ienv id (Array.unsafe_get fr.ienv i * c)
  | Ir.Mul, _, _ -> gen ( * )
  | Ir.And, ISlot i, ISlot j ->
      fun fr ->
        Array.unsafe_set fr.ienv id
          (Array.unsafe_get fr.ienv i land Array.unsafe_get fr.ienv j)
  | Ir.And, ISlot i, IConst c ->
      fun fr -> Array.unsafe_set fr.ienv id (Array.unsafe_get fr.ienv i land c)
  | Ir.And, _, _ -> gen ( land )
  | Ir.Or, ISlot i, IConst c ->
      fun fr -> Array.unsafe_set fr.ienv id (Array.unsafe_get fr.ienv i lor c)
  | Ir.Or, _, _ -> gen ( lor )
  | Ir.Xor, ISlot i, ISlot j ->
      fun fr ->
        Array.unsafe_set fr.ienv id
          (Array.unsafe_get fr.ienv i lxor Array.unsafe_get fr.ienv j)
  | Ir.Xor, _, _ -> gen ( lxor )
  | Ir.Shl, ISlot i, IConst c ->
      fun fr -> Array.unsafe_set fr.ienv id (Array.unsafe_get fr.ienv i lsl c)
  | Ir.Shl, _, _ -> gen ( lsl )
  | Ir.Lshr, ISlot i, IConst c ->
      fun fr -> Array.unsafe_set fr.ienv id (Array.unsafe_get fr.ienv i lsr c)
  | Ir.Lshr, _, _ -> gen ( lsr )
  | Ir.Ashr, _, _ -> gen ( asr )
  | Ir.Sdiv, ISlot i, IConst c when c <> 0 ->
      fun fr -> Array.unsafe_set fr.ienv id (Array.unsafe_get fr.ienv i / c)
  | Ir.Srem, ISlot i, IConst c when c <> 0 ->
      fun fr -> Array.unsafe_set fr.ienv id (Array.unsafe_get fr.ienv i mod c)
  | Ir.Sdiv, _, _ ->
      let a = iread sa and b = iread sb in
      fun fr ->
        let x = a fr and y = b fr in
        if y = 0 then trap "division by zero"
        else Array.unsafe_set fr.ienv id (x / y)
  | Ir.Srem, _, _ ->
      let a = iread sa and b = iread sb in
      fun fr ->
        let x = a fr and y = b fr in
        if y = 0 then trap "remainder by zero"
        else Array.unsafe_set fr.ienv id (x mod y)

let compile_icmp op sa sb id : frame -> unit =
  let gen cmp =
    let a = iread sa and b = iread sb in
    fun fr -> Array.unsafe_set fr.ienv id (if cmp (a fr) (b fr) then 1 else 0)
  in
  match (op, sa, sb) with
  | Ir.Eq, _, _ -> gen ( = )
  | Ir.Ne, ISlot i, ISlot j ->
      fun fr ->
        Array.unsafe_set fr.ienv id
          (if Array.unsafe_get fr.ienv i <> Array.unsafe_get fr.ienv j then 1
           else 0)
  | Ir.Ne, ISlot i, IConst c ->
      fun fr ->
        Array.unsafe_set fr.ienv id
          (if Array.unsafe_get fr.ienv i <> c then 1 else 0)
  | Ir.Ne, _, _ -> gen ( <> )
  | Ir.Lt, ISlot i, ISlot j ->
      fun fr ->
        Array.unsafe_set fr.ienv id
          (if Array.unsafe_get fr.ienv i < Array.unsafe_get fr.ienv j then 1
           else 0)
  | Ir.Lt, ISlot i, IConst c ->
      fun fr ->
        Array.unsafe_set fr.ienv id
          (if Array.unsafe_get fr.ienv i < c then 1 else 0)
  | Ir.Lt, _, _ -> gen ( < )
  | Ir.Le, _, _ -> gen ( <= )
  | Ir.Gt, ISlot i, IConst c ->
      fun fr ->
        Array.unsafe_set fr.ienv id
          (if Array.unsafe_get fr.ienv i > c then 1 else 0)
  | Ir.Gt, _, _ -> gen ( > )
  | Ir.Ge, _, _ -> gen ( >= )

let compile_fbinop op sa sb id : frame -> unit =
  let gen op2 =
    let a = fread sa and b = fread sb in
    fun fr -> Array.unsafe_set fr.fenv id (op2 (a fr) (b fr))
  in
  match (op, sa, sb) with
  | Ir.Fadd, FSlot i, FSlot j ->
      fun fr ->
        Array.unsafe_set fr.fenv id
          (Array.unsafe_get fr.fenv i +. Array.unsafe_get fr.fenv j)
  | Ir.Fadd, _, _ -> gen ( +. )
  | Ir.Fsub, FSlot i, FSlot j ->
      fun fr ->
        Array.unsafe_set fr.fenv id
          (Array.unsafe_get fr.fenv i -. Array.unsafe_get fr.fenv j)
  | Ir.Fsub, _, _ -> gen ( -. )
  | Ir.Fmul, FSlot i, FSlot j ->
      fun fr ->
        Array.unsafe_set fr.fenv id
          (Array.unsafe_get fr.fenv i *. Array.unsafe_get fr.fenv j)
  | Ir.Fmul, FSlot i, FConst c ->
      fun fr -> Array.unsafe_set fr.fenv id (Array.unsafe_get fr.fenv i *. c)
  | Ir.Fmul, _, _ -> gen ( *. )
  | Ir.Fdiv, FSlot i, FSlot j ->
      fun fr ->
        Array.unsafe_set fr.fenv id
          (Array.unsafe_get fr.fenv i /. Array.unsafe_get fr.fenv j)
  | Ir.Fdiv, FSlot i, FConst c ->
      fun fr -> Array.unsafe_set fr.fenv id (Array.unsafe_get fr.fenv i /. c)
  | Ir.Fdiv, _, _ -> gen ( /. )

let compile_fcmp op sa sb id : frame -> unit =
  let gen cmp =
    let a = fread sa and b = fread sb in
    fun fr -> Array.unsafe_set fr.ienv id (if cmp (a fr) (b fr) then 1 else 0)
  in
  match (op, sa, sb) with
  | Ir.Lt, FSlot i, FSlot j ->
      fun fr ->
        Array.unsafe_set fr.ienv id
          (if Array.unsafe_get fr.fenv i < Array.unsafe_get fr.fenv j then 1
           else 0)
  | Ir.Lt, _, _ -> gen ( < )
  | Ir.Le, _, _ -> gen ( <= )
  | Ir.Gt, FSlot i, FSlot j ->
      fun fr ->
        Array.unsafe_set fr.ienv id
          (if Array.unsafe_get fr.fenv i > Array.unsafe_get fr.fenv j then 1
           else 0)
  | Ir.Gt, FSlot i, FConst c ->
      fun fr ->
        Array.unsafe_set fr.ienv id
          (if Array.unsafe_get fr.fenv i > c then 1 else 0)
  | Ir.Gt, _, _ -> gen ( > )
  | Ir.Eq, _, _ -> gen ( = )
  | Ir.Ne, _, _ -> gen ( <> )
  | Ir.Ge, _, _ -> gen ( >= )

(* -- control flow ----------------------------------------------------------

   An edge applies its successor's phis for this predecessor as moves
   and tail-calls the successor's entry. Moves run in phi order, so a
   phi reads what its block's earlier phis just wrote, as in the
   interpreter. Int phis read only int sources and float phis only
   float ones, so the int moves can all go first. An int move is three
   ints in [imoves]: the phi's slot, the source's kind (0 a register, 1
   a constant, 2 an argument) and its slot, value or index, so the loop
   over them makes no call; float moves are rare. An edge with a phi
   arm that cannot be read (an ill-typed slot) gets an entry of its own
   that raises where the interpreter would. *)

type edge = { imoves : int array; fmoves : (int * fshape) array; dst : entry }

let float_moves fr fmoves =
  for k = 0 to Array.length fmoves - 1 do
    let d, s = Array.unsafe_get fmoves k in
    Array.unsafe_set fr.fenv d (read_float fr s)
  done

let[@inline] take fr e =
  let im = e.imoves in
  let j = ref 0 in
  while !j < Array.length im do
    let x = Array.unsafe_get im (!j + 2) in
    Array.unsafe_set fr.ienv
      (Array.unsafe_get im !j)
      (match Array.unsafe_get im (!j + 1) with
      | 0 -> Array.unsafe_get fr.ienv x
      | 1 -> x
      | _ -> Array.unsafe_get fr.iargs x);
    j := !j + 3
  done;
  if Array.length e.fmoves > 0 then float_moves fr e.fmoves;
  e.dst.enter fr

(* How a block ends. The common transfers are data, so the block's
   entry closure takes them inline; everything else is a closure. *)
type tail =
  | Jump of edge (* br *)
  | Branch of int * edge * edge (* cbr on an int register slot *)
  | Tail of (frame -> unit)

let[@inline] branch fr i et ee =
  if Array.unsafe_get fr.ienv i <> 0 then take fr et else take fr ee

(* The interpreter's block prologue: the profile cell, then fuel (the
   units are the block's instruction count plus its terminator), then
   the straight-line cycles. *)
let[@inline] charge st clock ~profiled cell ~units ~tick =
  if profiled then incr cell;
  st.fuel <- st.fuel - units;
  if st.fuel < 0 then trap "out of fuel (infinite loop?)";
  Memsim.Clock.tick clock tick

(* -- runtime intrinsic call sites -----------------------------------------

   A call that goes to the backend's dispatcher (guards, chunk and page
   accesses, TrackFM allocation, spans, bookkeeping hooks) compiles to a
   [site]: the handler the dispatcher returns for the callee's name (the
   dispatcher is applied once, when the call is compiled), how the call
   reads its arguments, its own slot and telemetry tag, and the
   interpreter's fallback for a handler that answers [None].

   The TrackFM passes put a guard, chunk or page call right before each
   access they cover, on the access's own address with a constant size
   (and chunk handle). When such a call is fused into its access (see
   [amode] below), its argument array is built from the address the
   access computes; any other call reads its argument shapes in order. *)

type args =
  | Addr of int (* [| addr; size |]: a guard or page call *)
  | Handle_addr of int * int (* [| handle; addr; size |]: a chunk access *)
  | Shapes of ishape array

type site = {
  handler : int array -> int option;
  args : args;
  sid : int;
  sfunc : string;
  tel : Telemetry.Sink.t;
  tagged : bool; (* the sink is active: [set_site] is not a no-op *)
  unhandled : frame -> int array -> unit;
}

(* Arguments read in order into an array literal (every TrackFM
   intrinsic takes at most three), coerced to ints exactly like the
   interpreter's [eval_ints]. *)
let read_args fr = function
  | [||] -> [||]
  | [| s0 |] -> [| read_int fr s0 |]
  | [| s0; s1 |] ->
      let a0 = read_int fr s0 in
      let a1 = read_int fr s1 in
      [| a0; a1 |]
  | [| s0; s1; s2 |] ->
      let a0 = read_int fr s0 in
      let a1 = read_int fr s1 in
      let a2 = read_int fr s2 in
      [| a0; a1; a2 |]
  | sargs ->
      let a = Array.make (Array.length sargs) 0 in
      for j = 0 to Array.length sargs - 1 do
        Array.unsafe_set a j (read_int fr (Array.unsafe_get sargs j))
      done;
      a

(* Tag the site, build its arguments, call its handler and write the
   result. [addr] is the address of the access the call is fused into;
   only [Addr] and [Handle_addr] sites read it. *)
let[@inline] run_site fr s addr =
  if s.tagged then Telemetry.Sink.set_site s.tel ~func:s.sfunc ~instr:s.sid;
  let a =
    match s.args with
    | Addr size -> [| addr; size |]
    | Handle_addr (handle, size) -> [| handle; addr; size |]
    | Shapes sargs -> read_args fr sargs
  in
  match s.handler a with
  | Some r -> Array.unsafe_set fr.ienv s.sid r
  | None -> s.unhandled fr a

(* -- memory access compilation -------------------------------------------

   Loads and stores take their address through an *address mode*: either
   the pointer operand itself ([APlain]), or — when a [Gep] immediately
   feeds the access — the fused address computation [AGep], which
   evaluates base + index*scale + offset inline, stores it in the gep's
   own slot (later instructions may reuse the pointer), and hands it to
   the access. An intrinsic call between the two, or right before a
   plain access — the guard, chunk or page call that the TrackFM passes
   put before every access they cover — fuses as well, as the access's
   [call]: it runs after the gep writes its slot and before the access
   reads its stored value, which the call may produce. (An access
   through the call's own result is not fused, so a register pointer
   may be read before the call.) One closure replaces the
   gep/call/access triple, and every slot write, site tag, tick and
   trap keeps its order. *)

type amode =
  | APlain of ishape
  | AGep of int * ishape * ishape * int * int
      (* dst slot, base, index, scale, offset *)

(* Generic address reader for the cold paths; keeps the AGep side effect
   (writing the gep's slot). *)
let amode_read = function
  | APlain sp -> iread sp
  | AGep (dst, sb, sx, scale, offset) ->
      let bs = iread sb and ix = iread sx in
      fun fr ->
        let addr = bs fr + (ix fr * scale) + offset in
        Array.unsafe_set fr.ienv dst addr;
        addr

(* [amode_read] with the fused call in its place: a gep's address and a
   register pointer (never the call's own result) are read before the
   call, which may take them as its address; any other pointer is read
   after it, as the interpreter reads it, and its call reads its
   argument shapes. *)
let address call am : frame -> int =
  match (call, am) with
  | None, am -> amode_read am
  | Some s, APlain (IConst _ | IArg _ | IFn _ as sp) ->
      let p = iread sp in
      fun fr ->
        run_site fr s 0;
        p fr
  | Some s, am ->
      let p = amode_read am in
      fun fr ->
        let addr = p fr in
        run_site fr s addr;
        addr

(* The address shapes the access arms below specialise, each in two
   closures picked when the access compiles: without a fused call
   ([call = None]) the plain access, with one [s] the access after
   [called s]. So an access no call fuses into never tests for one. *)
let[@inline] reg fr i = Array.unsafe_get fr.ienv i
let[@inline] arg fr i = Array.unsafe_get fr.iargs i

(* A gep's address, written to its slot. *)
let[@inline] gep_at fr dst addr =
  Array.unsafe_set fr.ienv dst addr;
  addr

(* [addr], after the fused call [s] ran on it. *)
let[@inline] called s fr addr =
  run_site fr s addr;
  addr

let compile_load ctx (i : Ir.instr) ~size ~is_float ~fname ~call amode :
    frame -> unit =
  let b = ctx.backend in
  let clock = b.Backend.clock in
  let store = b.Backend.store in
  let tel = b.Backend.telemetry in
  let on_access = b.Backend.on_access in
  let local_access = b.Backend.cost.Memsim.Cost_model.local_access in
  let id = i.Ir.id in
  (* Both compile-time constants for this run: a Nop sink ignores
     [set_site], and the no-op access hook does nothing — elide the
     calls from the closures entirely. *)
  let site = Telemetry.Sink.is_active tel in
  let hook = not (on_access == Backend.no_access) in
  if is_float then begin
    (* [body] is a known local function: the address-mode match below
       fuses the address into the closure and the call to [body]
       compiles to a direct jump, not a closure dispatch. *)
    let body fr addr =
      if site then Telemetry.Sink.set_site tel ~func:fname ~instr:id;
      if hook then on_access ~addr ~size ~write:false;
      Memsim.Clock.tick clock local_access;
      Memsim.Memstore.load_float_into store ~addr fr.fenv id
    in
    match (call, amode) with
    | None, APlain (ISlot p) -> fun fr -> body fr (reg fr p)
    | Some s, APlain (ISlot p) -> fun fr -> body fr (called s fr (reg fr p))
    | None, AGep (dst, ISlot bi, ISlot xi, scale, offset) ->
        fun fr ->
          body fr (gep_at fr dst (reg fr bi + (reg fr xi * scale) + offset))
    | Some s, AGep (dst, ISlot bi, ISlot xi, scale, offset) ->
        fun fr ->
          body fr
            (called s fr
               (gep_at fr dst (reg fr bi + (reg fr xi * scale) + offset)))
    | call, am ->
        let p = address call am in
        fun fr -> body fr (p fr)
  end
  else
    let body fr addr =
      if site then Telemetry.Sink.set_site tel ~func:fname ~instr:id;
      if hook then on_access ~addr ~size ~write:false;
      Memsim.Clock.tick clock local_access;
      Array.unsafe_set fr.ienv id (Memsim.Memstore.load store ~addr ~size)
    in
    match (call, amode) with
    | None, APlain (ISlot p) -> fun fr -> body fr (reg fr p)
    | Some s, APlain (ISlot p) -> fun fr -> body fr (called s fr (reg fr p))
    | None, AGep (dst, ISlot bi, ISlot xi, scale, offset) ->
        fun fr ->
          body fr (gep_at fr dst (reg fr bi + (reg fr xi * scale) + offset))
    | Some s, AGep (dst, ISlot bi, ISlot xi, scale, offset) ->
        fun fr ->
          body fr
            (called s fr
               (gep_at fr dst (reg fr bi + (reg fr xi * scale) + offset)))
    | None, AGep (dst, ISlot bi, IConst k, scale, offset) ->
        let add = (k * scale) + offset in
        fun fr -> body fr (gep_at fr dst (reg fr bi + add))
    | Some s, AGep (dst, ISlot bi, IConst k, scale, offset) ->
        let add = (k * scale) + offset in
        fun fr -> body fr (called s fr (gep_at fr dst (reg fr bi + add)))
    | None, AGep (dst, IArg bi, IConst k, scale, offset) ->
        let add = (k * scale) + offset in
        fun fr -> body fr (gep_at fr dst (arg fr bi + add))
    | Some s, AGep (dst, IArg bi, IConst k, scale, offset) ->
        let add = (k * scale) + offset in
        fun fr -> body fr (called s fr (gep_at fr dst (arg fr bi + add)))
    | call, am ->
        let p = address call am in
        fun fr -> body fr (p fr)

let compile_store ctx f rtys (i : Ir.instr) ~size ~is_float ~v ~fname ~call
    amode : frame -> unit =
  let b = ctx.backend in
  let clock = b.Backend.clock in
  let store = b.Backend.store in
  let tel = b.Backend.telemetry in
  let on_access = b.Backend.on_access in
  let local_access = b.Backend.cost.Memsim.Cost_model.local_access in
  let id = i.Ir.id in
  let site = Telemetry.Sink.is_active tel in
  let hook = not (on_access == Backend.no_access) in
  (* The stored value is read after the address, and so after the fused
     call, which may produce it. *)
  if is_float then begin
    (* A float register stored through a register or a gep of two
       registers goes to the page through [Memstore.store_float_from],
       never boxed; other stores read their operand after the hooks, as
       the interpreter reads it. *)
    let body fr addr vi =
      if site then Telemetry.Sink.set_site tel ~func:fname ~instr:id;
      if hook then on_access ~addr ~size ~write:true;
      Memsim.Clock.tick clock local_access;
      Memsim.Memstore.store_float_from store ~addr fr.fenv vi;
      Array.unsafe_set fr.ienv id 0
    in
    match (call, amode, fshape ctx f rtys v) with
    | None, AGep (dst, ISlot bi, ISlot xi, scale, offset), FSlot vi ->
        fun fr ->
          body fr (gep_at fr dst (reg fr bi + (reg fr xi * scale) + offset)) vi
    | Some s, AGep (dst, ISlot bi, ISlot xi, scale, offset), FSlot vi ->
        fun fr ->
          body fr
            (called s fr
               (gep_at fr dst (reg fr bi + (reg fr xi * scale) + offset)))
            vi
    | None, APlain (ISlot pi), FSlot vi -> fun fr -> body fr (reg fr pi) vi
    | Some s, APlain (ISlot pi), FSlot vi ->
        fun fr -> body fr (called s fr (reg fr pi)) vi
    | call, am, sv ->
        let p = address call am and x = fread sv in
        fun fr ->
          let addr = p fr in
          if site then Telemetry.Sink.set_site tel ~func:fname ~instr:id;
          if hook then on_access ~addr ~size ~write:true;
          Memsim.Clock.tick clock local_access;
          Memsim.Memstore.store_float store ~addr (x fr);
          Array.unsafe_set fr.ienv id 0
  end
  else
    let body fr addr x =
      if site then Telemetry.Sink.set_site tel ~func:fname ~instr:id;
      if hook then on_access ~addr ~size ~write:true;
      Memsim.Clock.tick clock local_access;
      Memsim.Memstore.store store ~addr ~size x;
      Array.unsafe_set fr.ienv id 0
    in
    match (call, amode, ishape ctx f rtys v) with
    | None, AGep (dst, ISlot bi, ISlot xi, scale, offset), ISlot vi ->
        fun fr ->
          let addr = gep_at fr dst (reg fr bi + (reg fr xi * scale) + offset) in
          body fr addr (reg fr vi)
    | Some s, AGep (dst, ISlot bi, ISlot xi, scale, offset), ISlot vi ->
        fun fr ->
          let addr =
            called s fr
              (gep_at fr dst (reg fr bi + (reg fr xi * scale) + offset))
          in
          body fr addr (reg fr vi)
    | None, APlain (ISlot pi), ISlot vi ->
        fun fr -> body fr (reg fr pi) (reg fr vi)
    | Some s, APlain (ISlot pi), ISlot vi ->
        fun fr ->
          let addr = called s fr (reg fr pi) in
          body fr addr (reg fr vi)
    | call, am, sv ->
        let p = address call am and x = iread sv in
        fun fr ->
          let addr = p fr in
          body fr addr (x fr)

let compile_access ctx f rtys (i : Ir.instr) ~fname ~call amode =
  match i.Ir.kind with
  | Ir.Load { size; is_float; _ } ->
      compile_load ctx i ~size ~is_float ~fname ~call amode
  | Ir.Store { size; is_float; v; _ } ->
      compile_store ctx f rtys i ~size ~is_float ~v ~fname ~call amode
  | _ -> invalid_arg "Compile.compile_access"

(* -- calls ------------------------------------------------------------------ *)

let no_frame = { ienv = [||]; fenv = [||]; iargs = [||]; fargs = [||] }

(* The free frame just above [cfn]'s live activations, allocated the
   first time an activation reaches that depth. A free frame is all
   zeros, so a register read before the activation defines it reads 0,
   as in a fresh interpreter environment. *)
let take_frame cfn =
  let k = cfn.cf_live in
  if k = Array.length cfn.cf_frames then begin
    let frames = Array.make (max 1 (2 * k)) no_frame in
    Array.blit cfn.cf_frames 0 frames 0 k;
    cfn.cf_frames <- frames
  end;
  let fr = Array.unsafe_get cfn.cf_frames k in
  let fr =
    if fr != no_frame then fr
    else begin
      let n = max 1 cfn.cf_src.Ir.next_id in
      let fr =
        {
          ienv = Array.make n 0;
          fenv = (if cfn.cf_has_floats then Array.make n 0.0 else [||]);
          iargs = [||];
          fargs = [||];
        }
      in
      cfn.cf_frames.(k) <- fr;
      fr
    end
  in
  cfn.cf_live <- k + 1;
  fr

(* Zero-fill the innermost live frame and free it. The loops are plain
   stores: [Array.fill] would be an external call. *)
let release_frame cfn fr =
  let ienv = fr.ienv in
  for j = 0 to Array.length ienv - 1 do
    Array.unsafe_set ienv j 0
  done;
  let fenv = fr.fenv in
  for j = 0 to Array.length fenv - 1 do
    Array.unsafe_set fenv j 0.0
  done;
  cfn.cf_live <- cfn.cf_live - 1

(* Call a compiled function with already-built argument arrays: the
   interpreter's [call_function] — depth and span accounting, stack
   save/restore — with the arity check hoisted to compile time for
   direct calls ([checked_arity]). A trap abandons the whole run, so a
   frame it leaves live is never taken again. *)
let invoke ctx cfn ~checked_arity (ia : int array) (fa : float array) =
  let st = ctx.st in
  let f = cfn.cf_src in
  if (not checked_arity) && Array.length ia <> f.Ir.nparams then
    trap "%s expects %d arguments, got %d" f.Ir.fname f.Ir.nparams
      (Array.length ia);
  st.depth <- st.depth + 1;
  if st.depth > Interp.max_call_depth then
    trap "call depth exceeded (recursion?)";
  let tel = ctx.backend.Backend.telemetry in
  let span_it = st.depth <= 2 && Telemetry.Sink.is_active tel in
  let t0 = if span_it then Telemetry.Sink.timestamp tel else 0 in
  let fr = take_frame cfn in
  fr.iargs <- ia;
  fr.fargs <- fa;
  let saved_sp = st.stack_ptr in
  cfn.cf_enter fr;
  release_frame cfn fr;
  if span_it then
    Telemetry.Sink.span tel ~name:f.Ir.fname ~cat:"call" ~start:t0 ();
  st.stack_ptr <- saved_sp;
  st.depth <- st.depth - 1

(* The site of an intrinsic call [i]; [addr] is the register that holds
   the address of the access it is fused into. Its handler is the
   backend's dispatcher applied to [callee], here, once, when the call
   is compiled; a name the backend does not handle gets the interpreter's
   fallbacks: a trap for a [!] hook, else a call of the IR function of
   that name. *)
let intrinsic_site ?addr ctx (f : Ir.func) rtys (i : Ir.instr) callee cargs =
  let st = ctx.st in
  let b = ctx.backend in
  let clock = b.Backend.clock in
  let id = i.Ir.id in
  let sargs = Array.of_list (List.map (ishape ctx f rtys) cargs) in
  let n = Array.length sargs in
  let args =
    match (addr, sargs) with
    | Some r, [| ISlot p; IConst size |] when p = r -> Addr size
    | Some r, [| IConst handle; ISlot p; IConst size |] when p = r ->
        Handle_addr (handle, size)
    | _ -> Shapes sargs
  in
  let is_hook = String.length callee > 0 && callee.[0] = '!' in
  let unhandled fr a =
    if is_hook then trap "unknown runtime hook %s" callee
    else begin
      Memsim.Clock.tick clock 5 (* call overhead *);
      match Hashtbl.find_opt ctx.cfuncs callee with
      | None -> trap "unknown function %s" callee
      | Some target ->
          let fa = if n = 0 then [||] else Array.make n 0.0 in
          invoke ctx target ~checked_arity:false a fa;
          if target.cf_ret = TFloat then
            (* Inference could not see this dynamically-resolved
               callee, so the result slot may be int-typed. *)
            if id < Array.length fr.fenv then fr.fenv.(id) <- st.fret
            else trap "expected int, got float"
          else Array.unsafe_set fr.ienv id st.iret
    end
  in
  {
    handler = b.Backend.intrinsic callee;
    args;
    sid = id;
    sfunc = f.Ir.fname;
    tel = b.Backend.telemetry;
    tagged = Telemetry.Sink.is_active b.Backend.telemetry;
    unhandled;
  }

(* -- instruction compilation --------------------------------------------- *)

let compile_call ctx (f : Ir.func) rtys (i : Ir.instr) callee cargs :
    frame -> unit =
  let st = ctx.st in
  let b = ctx.backend in
  let clock = b.Backend.clock in
  let tel = b.Backend.telemetry in
  let fname = f.Ir.fname in
  let id = i.Ir.id in
  (* Compile-time constant for this run: a Nop sink ignores [set_site]. *)
  let site = Telemetry.Sink.is_active tel in
  let si = ishape ctx f rtys in
  let arg n =
    match List.nth_opt cargs n with
    | Some v -> si v
    | None ->
        (* Mirrors the interpreter indexing actuals past the argument
           list. *)
        IFn (fun _ -> invalid_arg "index out of bounds")
  in
  match callee with
  | "malloc" ->
      let a0 = arg 0 in
      let malloc = b.Backend.malloc in
      fun fr ->
        if site then Telemetry.Sink.set_site tel ~func:fname ~instr:id;
        Array.unsafe_set fr.ienv id (malloc (read_int fr a0))
  | "calloc" ->
      let a0 = arg 0 and a1 = arg 1 in
      let malloc = b.Backend.malloc in
      fun fr ->
        if site then Telemetry.Sink.set_site tel ~func:fname ~instr:id;
        let n = read_int fr a0 in
        Array.unsafe_set fr.ienv id (malloc (n * read_int fr a1))
  | "realloc" ->
      let a0 = arg 0 and a1 = arg 1 in
      let realloc = b.Backend.realloc in
      fun fr ->
        if site then Telemetry.Sink.set_site tel ~func:fname ~instr:id;
        let p = read_int fr a0 in
        Array.unsafe_set fr.ienv id (realloc p (read_int fr a1))
  | "free" ->
      let a0 = arg 0 in
      let free = b.Backend.free in
      fun fr ->
        if site then Telemetry.Sink.set_site tel ~func:fname ~instr:id;
        free (read_int fr a0);
        Array.unsafe_set fr.ienv id 0
  | _ when is_direct_call ctx callee ->
      (* Direct call to a defined IR function: target, arity, and the
         per-parameter marshalling plan are all resolved here, once. *)
      let target = Hashtbl.find ctx.cfuncs callee in
      let nactual = List.length cargs in
      let nparams = target.cf_src.Ir.nparams in
      if nactual <> nparams then (
        fun _ ->
          if site then Telemetry.Sink.set_site tel ~func:fname ~instr:id;
          Memsim.Clock.tick clock 5;
          trap "%s expects %d arguments, got %d" callee nparams nactual)
      else begin
        (* Parameter [j] is passed in [ia.(j)] or [fa.(j)], by its
           inferred type; the other array holds 0 there. For one int
           parameter, or two with a float one, the arrays are literals
           (inline minor-heap allocations), and [fa] is [[||]] for a
           callee without float parameters. Arguments are read in order,
           as the interpreter evaluates actuals. *)
        let is_float j = target.cf_params.(j) = TFloat in
        let has_float = Array.exists (fun t -> t = TFloat) target.cf_params in
        let ishapes =
          Array.of_list
            (List.mapi (fun j v -> if is_float j then IConst 0 else si v) cargs)
        in
        let fshapes =
          Array.of_list
            (List.mapi
               (fun j v -> if is_float j then fshape ctx f rtys v else FConst 0.0)
               cargs)
        in
        let ret_float = target.cf_ret = TFloat in
        let[@inline] call fr ia fa =
          invoke ctx target ~checked_arity:true ia fa;
          if ret_float then Array.unsafe_set fr.fenv id st.fret
          else Array.unsafe_set fr.ienv id st.iret
        in
        let[@inline] enter () =
          if site then Telemetry.Sink.set_site tel ~func:fname ~instr:id;
          Memsim.Clock.tick clock 5 (* call overhead *)
        in
        match (has_float, ishapes, fshapes) with
        | false, [| i0 |], _ ->
            fun fr ->
              enter ();
              call fr [| read_int fr i0 |] [||]
        | true, [| i0; i1 |], [| f0; f1 |] ->
            fun fr ->
              enter ();
              let a0 = read_int fr i0 in
              let x0 = read_float fr f0 in
              let a1 = read_int fr i1 in
              let x1 = read_float fr f1 in
              call fr [| a0; a1 |] [| x0; x1 |]
        | _ ->
            fun fr ->
              enter ();
              let ia = Array.make nparams 0 in
              let fa = if has_float then Array.make nparams 0.0 else [||] in
              for j = 0 to nparams - 1 do
                Array.unsafe_set ia j (read_int fr (Array.unsafe_get ishapes j));
                if has_float then
                  Array.unsafe_set fa j
                    (read_float fr (Array.unsafe_get fshapes j))
              done;
              call fr ia fa
      end
  | _ ->
      (* Runtime intrinsic (guards, chunk accesses, spans, bookkeeping
         hooks). *)
      let s = intrinsic_site ctx f rtys i callee cargs in
      fun fr -> run_site fr s 0

let compile_instr ctx (f : Ir.func) rtys (i : Ir.instr) : frame -> unit =
  let st = ctx.st in
  let fname = f.Ir.fname in
  let id = i.Ir.id in
  let seti fr v = Array.unsafe_set fr.ienv id v in
  let setf fr v = Array.unsafe_set fr.fenv id v in
  let si v = ishape ctx f rtys v in
  let sf v = fshape ctx f rtys v in
  match i.Ir.kind with
  | Ir.Binop (op, a, b) -> compile_binop op (si a) (si b) id
  | Ir.Fbinop (op, a, b) -> compile_fbinop op (sf a) (sf b) id
  | Ir.Icmp (op, a, b) -> compile_icmp op (si a) (si b) id
  | Ir.Fcmp (op, a, b) -> compile_fcmp op (sf a) (sf b) id
  | Ir.Si_to_fp a -> (
      match si a with
      | ISlot i ->
          fun fr -> setf fr (float_of_int (Array.unsafe_get fr.ienv i))
      | s ->
          let a = iread s in
          fun fr -> setf fr (float_of_int (a fr)))
  | Ir.Fp_to_si a -> (
      match sf a with
      | FSlot i -> fun fr -> seti fr (int_of_float (Array.unsafe_get fr.fenv i))
      | s ->
          let a = fread s in
          fun fr -> seti fr (int_of_float (a fr)))
  | Ir.Load { ptr; _ } | Ir.Store { ptr; _ } ->
      compile_access ctx f rtys i ~fname ~call:None (APlain (si ptr))
  | Ir.Gep { base; index; scale; offset } -> (
      match (si base, si index) with
      | ISlot b, IConst k ->
          let add = (k * scale) + offset in
          fun fr -> seti fr (Array.unsafe_get fr.ienv b + add)
      | ISlot b, ISlot i ->
          fun fr ->
            seti fr
              (Array.unsafe_get fr.ienv b
              + (Array.unsafe_get fr.ienv i * scale)
              + offset)
      | sb, sx ->
          let bs = iread sb and ix = iread sx in
          fun fr -> seti fr (bs fr + (ix fr * scale) + offset))
  | Ir.Alloca bytes ->
      let aligned = (bytes + 15) land lnot 15 in
      fun fr ->
        let addr = st.stack_ptr in
        st.stack_ptr <- addr + aligned;
        seti fr addr
  | Ir.Call { callee; args } -> compile_call ctx f rtys i callee args
  | Ir.Phi _ ->
      (* The verifier puts every phi first in its block, and those are
         edge moves. *)
      invalid_arg "Compile.compile_instr: phi"
  | Ir.Select (c, a, b) ->
      if rtys.(id) = TInt then begin
        match (si c, si a, si b) with
        | ISlot k, ISlot ai, ISlot bi ->
            fun fr ->
              seti fr
                (if Array.unsafe_get fr.ienv k <> 0 then
                   Array.unsafe_get fr.ienv ai
                 else Array.unsafe_get fr.ienv bi)
        | sc, sa, sb ->
            let c = iread sc and a = iread sa and b = iread sb in
            fun fr -> seti fr (if c fr <> 0 then a fr else b fr)
      end
      else begin
        match (si c, sf a, sf b) with
        | ISlot k, FSlot ai, FSlot bi ->
            fun fr ->
              setf fr
                (if Array.unsafe_get fr.ienv k <> 0 then
                   Array.unsafe_get fr.fenv ai
                 else Array.unsafe_get fr.fenv bi)
        | sc, sa, sb ->
            let c = iread sc and a = fread sa and b = fread sb in
            fun fr -> setf fr (if c fr <> 0 then a fr else b fr)
      end

(* [edge l] is the edge from this block to the block labelled [l]. *)
let compile_term ctx (f : Ir.func) cfn rtys ~edge ~label (t : Ir.terminator) :
    tail =
  let st = ctx.st in
  match t with
  | Ir.Br l -> Jump (edge l)
  | Ir.Cbr (c, t, e) -> (
      let et = edge t and ee = edge e in
      match ishape ctx f rtys c with
      | ISlot i -> Branch (i, et, ee)
      | sc ->
          Tail (fun fr -> if read_int fr sc <> 0 then take fr et else take fr ee))
  | Ir.Ret None ->
      if cfn.cf_ret = TFloat then Tail (fun _ -> trap "expected float, got int")
      else Tail (fun _ -> st.iret <- 0)
  | Ir.Ret (Some v) ->
      if cfn.cf_ret = TFloat then
        let s = fshape ctx f rtys v in
        Tail (fun fr -> st.fret <- read_float fr s)
      else
        let s = ishape ctx f rtys v in
        Tail (fun fr -> st.iret <- read_int fr s)
  | Ir.Unreachable ->
      let fname = f.Ir.fname in
      Tail (fun _ -> trap "%s: reached unreachable in %s" fname label)

(* Straight-line chaining: a block's instruction closures become one
   closure calling them in sequence, so a block pays no per-instruction
   loop counter or array bound. Four calls per link; the last one is a
   tail call. *)
let rec chain (code : (frame -> unit) array) lo n : frame -> unit =
  match n with
  | 1 -> code.(lo)
  | 2 ->
      let a = code.(lo) and b = code.(lo + 1) in
      fun fr ->
        a fr;
        b fr
  | 3 ->
      let a = code.(lo) and b = code.(lo + 1) and c = code.(lo + 2) in
      fun fr ->
        a fr;
        b fr;
        c fr
  | n ->
      let a = code.(lo) and b = code.(lo + 1) and c = code.(lo + 2) in
      let rest = chain code (lo + 3) (n - 3) in
      fun fr ->
        a fr;
        b fr;
        c fr;
        rest fr

(* A block's entry closure: charge the block, run its body and take its
   tail, whose transfer is a tail call. [charge], [take] and [branch]
   inline into each closure below. *)
let block_entry st clock ~profiled cell ~units ~tick code tail : frame -> unit
    =
  match (code, tail) with
  | [||], Jump e ->
      fun fr ->
        charge st clock ~profiled cell ~units ~tick;
        take fr e
  | [||], Branch (i, et, ee) ->
      fun fr ->
        charge st clock ~profiled cell ~units ~tick;
        branch fr i et ee
  | [||], Tail t ->
      fun fr ->
        charge st clock ~profiled cell ~units ~tick;
        t fr
  | code, Jump e ->
      let body = chain code 0 (Array.length code) in
      fun fr ->
        charge st clock ~profiled cell ~units ~tick;
        body fr;
        take fr e
  | code, Branch (i, et, ee) ->
      let body = chain code 0 (Array.length code) in
      fun fr ->
        charge st clock ~profiled cell ~units ~tick;
        body fr;
        branch fr i et ee
  | code, Tail t ->
      let body = chain code 0 (Array.length code) in
      fun fr ->
        charge st clock ~profiled cell ~units ~tick;
        body fr;
        t fr

(* A block's leading phis, as (slot, arms). *)
let rec split_phis acc = function
  | { Ir.kind = Ir.Phi incoming; id; _ } :: rest ->
      split_phis ((id, incoming) :: acc) rest
  | rest -> (List.rev acc, rest)

(* The edge from predecessor [pred] into a block with leading [phis]:
   each phi moves its arm for [pred]. [Error] holds the read that traps
   first. *)
let phi_edge ctx (f : Ir.func) rtys phis ~pred dst =
  let rec go im fm = function
    | [] ->
        Ok
          {
            imoves = Array.of_list (List.concat (List.rev im));
            fmoves = Array.of_list (List.rev fm);
            dst;
          }
    | (id, incoming) :: rest -> (
        let v = List.assoc pred incoming in
        if rtys.(id) = TInt then
          match ishape ctx f rtys v with
          | ISlot x -> go ([ id; 0; x ] :: im) fm rest
          | IConst x -> go ([ id; 1; x ] :: im) fm rest
          | IArg x -> go ([ id; 2; x ] :: im) fm rest
          | IFn g -> Error (fun fr -> ignore (g fr : int))
        else
          match fshape ctx f rtys v with
          | FFn g -> Error (fun fr -> ignore (g fr : float))
          | s -> go im ((id, s) :: fm) rest)
  in
  go [] [] phis

let compile_func ctx (f : Ir.func) =
  let cfn = Hashtbl.find ctx.cfuncs f.fname in
  let rtys = Hashtbl.find ctx.reg_tys f.fname in
  let st = ctx.st and clock = ctx.backend.Backend.clock in
  let fname = f.Ir.fname in
  let blocks = Array.of_list f.Ir.blocks in
  let label_index = Hashtbl.create 16 in
  Array.iteri
    (fun k (b : Ir.block) -> Hashtbl.replace label_index b.label k)
    blocks;
  (* A block's phis, which the verifier puts first, become moves on its
     incoming edges. *)
  let phis = Array.map (fun (b : Ir.block) -> split_phis [] b.instrs) blocks in
  let entries = Array.map (fun _ -> { enter = (fun _ -> ()) }) blocks in
  (* Cost accounting is over the *source* instruction count — fusion
     below merges closures, never changes what the run charges. *)
  let profiled = Option.is_some ctx.profile in
  let cells =
    Array.map
      (fun (b : Ir.block) ->
        match ctx.profile with
        | Some prof -> Profile.cell prof ~func:fname ~block:b.label
        | None -> ref 0)
      blocks
  in
  let units k = List.length blocks.(k).Ir.instrs + 1 in
  let ticks k = (List.length blocks.(k).Ir.instrs + 4) / 4 in
  let edge ~pred l =
    let k = Hashtbl.find label_index l in
    match phi_edge ctx f rtys (fst phis.(k)) ~pred entries.(k) with
    | Ok e -> e
    | Error fail ->
        (* The interpreter charges the block before its phi traps. *)
        let cell = cells.(k) and units = units k and tick = ticks k in
        let enter fr =
          charge st clock ~profiled cell ~units ~tick;
          fail fr
        in
        { imoves = [||]; fmoves = [||]; dst = { enter } }
  in
  (* Fusion: a gep folds into the access right after it that takes its
     address from it, and an intrinsic call into the access right after
     it, past such a gep if there is one. *)
  let ptr_of (i : Ir.instr) =
    match i.Ir.kind with
    | Ir.Load { ptr; _ } | Ir.Store { ptr; _ } -> Some ptr
    | _ -> None
  in
  (* A call [compile_call] sends to the backend's dispatcher. *)
  let is_site (c : Ir.instr) =
    match c.Ir.kind with
    | Ir.Call { callee = "malloc" | "calloc" | "realloc" | "free"; _ } -> false
    | Ir.Call { callee; _ } -> not (is_direct_call ctx callee)
    | _ -> false
  in
  let site ?addr (c : Ir.instr) =
    match c.Ir.kind with
    | Ir.Call { callee; args } -> intrinsic_site ?addr ctx f rtys c callee args
    | _ -> invalid_arg "Compile.site"
  in
  let agep id base index scale offset =
    AGep (id, ishape ctx f rtys base, ishape ctx f rtys index, scale, offset)
  in
  let rec build acc = function
    | [] -> Array.of_list (List.rev acc)
    | (i : Ir.instr) :: rest -> (
        let fuse ?call next am rest =
          build (compile_access ctx f rtys next ~fname ~call am :: acc) rest
        in
        let feeds next = ptr_of next = Some (Ir.Reg i.Ir.id) in
        match (i.Ir.kind, rest) with
        | Ir.Gep { base; index; scale; offset }, next :: rest when feeds next ->
            fuse next (agep i.Ir.id base index scale offset) rest
        | Ir.Gep { base; index; scale; offset }, c :: next :: rest
          when is_site c && feeds next ->
            fuse
              ~call:(site ~addr:i.Ir.id c)
              next
              (agep i.Ir.id base index scale offset)
              rest
        | ( Ir.Call _,
            (( { Ir.kind = Ir.Load { ptr; _ }; _ }
             | { Ir.kind = Ir.Store { ptr; _ }; _ } ) as next)
            :: rest )
          when is_site i && not (feeds next) ->
            (* Not through the call's own result: a register pointer is
               read before the call runs. *)
            let addr = match ptr with Ir.Reg p -> Some p | _ -> None in
            fuse ~call:(site ?addr i) next (APlain (ishape ctx f rtys ptr)) rest
        | _ -> build (compile_instr ctx f rtys i :: acc) rest)
  in
  Array.iteri
    (fun k (b : Ir.block) ->
      let tail =
        compile_term ctx f cfn rtys ~edge:(edge ~pred:b.label) ~label:b.label
          b.term
      in
      entries.(k).enter <-
        block_entry st clock ~profiled cells.(k) ~units:(units k)
          ~tick:(ticks k)
          (build [] (snd phis.(k)))
          tail)
    blocks;
  (* The entry block has no phis: a call enters it directly. *)
  cfn.cf_enter <- entries.(0).enter

let compile_module ctx =
  (* Phase 1: register shells so recursion and mutual calls resolve. *)
  List.iter
    (fun (f : Ir.func) ->
      Hashtbl.replace ctx.cfuncs f.fname
        {
          cf_src = f;
          cf_params = Array.make f.nparams TInt;
          cf_ret = TInt;
          cf_has_floats = false;
          cf_enter = (fun _ -> ());
          cf_frames = [||];
          cf_live = 0;
        };
      Hashtbl.replace ctx.reg_tys f.fname (Array.make (max 1 f.next_id) TInt))
    ctx.m.Ir.funcs;
  (* Phase 2: int/float slot assignment (module-wide fixpoint). *)
  infer_types ctx;
  (* Phase 3: lower every body to closures. *)
  List.iter (compile_func ctx) ctx.m.Ir.funcs

let run ?profile ?(fuel = 2_000_000_000) ?(args = []) backend m ~entry =
  Verifier.check_module m;
  let ctx =
    {
      st =
        {
          fuel;
          depth = 0;
          stack_ptr = Interp.stack_base;
          iret = 0;
          fret = 0.0;
        };
      backend;
      m;
      globals = Interp.layout_globals m;
      cfuncs = Hashtbl.create 8;
      reg_tys = Hashtbl.create 8;
      profile;
    }
  in
  compile_module ctx;
  let cfn =
    match Hashtbl.find_opt ctx.cfuncs entry with
    | Some c -> c
    | None -> trap "unknown function %s" entry
  in
  let ia = Array.of_list args in
  let fa =
    if Array.length ia = 0 then [||] else Array.make (Array.length ia) 0.0
  in
  invoke ctx cfn ~checked_arity:false ia fa;
  if cfn.cf_ret = TFloat then trap "expected int, got float";
  {
    Interp.ret = ctx.st.iret;
    cycles = Memsim.Clock.cycles backend.Backend.clock;
    instrs_executed = fuel - ctx.st.fuel;
  }
