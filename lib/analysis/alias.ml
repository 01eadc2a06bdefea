type cls = Bottom | Heap | Stack | Global | Unknown

type t = { classes : (int, cls) Hashtbl.t }

let join a b =
  match (a, b) with
  | Bottom, x | x, Bottom -> x
  | Unknown, _ | _, Unknown -> Unknown
  | Heap, Heap -> Heap
  | Stack, Stack -> Stack
  | Global, Global -> Global
  | (Heap | Stack | Global), (Heap | Stack | Global) -> Unknown

let cls_of_prov value_cls args = function
  | Summary.Pheap -> Heap
  | Summary.Pstack -> Stack
  | Summary.Pglobal -> Global
  | Summary.Pnone -> Bottom
  | Summary.From_arg k -> (
      (* Returns-its-argument helper: the result is as precise as what
         the caller passed in. *)
      match List.nth_opt args k with Some v -> value_cls v | None -> Unknown)
  | Summary.Punknown -> Unknown

let classify t = function
  | Ir.Const _ | Ir.Constf _ -> Bottom
  | Ir.Sym _ -> Global
  | Ir.Arg _ -> Unknown
  | Ir.Reg id -> ( try Hashtbl.find t.classes id with Not_found -> Bottom)

let analyze ?summaries (f : Ir.func) =
  let t = { classes = Hashtbl.create 64 } in
  let value_cls = classify t in
  let transfer (i : Ir.instr) =
    match i.kind with
    | Ir.Alloca _ -> Stack
    | Ir.Call { callee; args } -> (
        match (Intrinsics.classify callee, summaries) with
        | Intrinsics.Alloc, _ -> Heap
        | Intrinsics.Unknown, Some env -> (
            (* Wrapper allocators and pass-through helpers classify
               precisely when an interprocedural summary is available. *)
            match Summary.lookup env callee with
            | Some s -> cls_of_prov value_cls args s.Summary.ret
            | None -> Unknown)
        | _ -> Unknown)
    | Ir.Gep { base; _ } -> value_cls base
    | Ir.Phi incoming ->
        List.fold_left (fun acc (_, v) -> join acc (value_cls v)) Bottom
          incoming
    | Ir.Select (_, a, b) -> join (value_cls a) (value_cls b)
    | Ir.Load { is_float = false; _ } -> Unknown
    | Ir.Load { is_float = true; _ } -> Bottom
    | Ir.Binop _ -> Unknown (* integer math may carry a cast pointer *)
    | Ir.Fbinop _ | Ir.Icmp _ | Ir.Fcmp _ | Ir.Si_to_fp _ | Ir.Fp_to_si _
    | Ir.Store _ ->
        Bottom
  in
  Defuse.fixpoint f t.classes ~bot:Bottom ~join transfer;
  t

let needs_guard t v =
  match classify t v with
  | Stack | Global -> false
  | Heap | Unknown | Bottom -> true

let pp_cls fmt c =
  Format.pp_print_string fmt
    (match c with
    | Bottom -> "bottom"
    | Heap -> "heap"
    | Stack -> "stack"
    | Global -> "global"
    | Unknown -> "unknown")
