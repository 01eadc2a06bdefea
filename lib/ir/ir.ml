type binop =
  | Add | Sub | Mul | Sdiv | Srem
  | And | Or | Xor | Shl | Lshr | Ashr

type fbinop = Fadd | Fsub | Fmul | Fdiv

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type value =
  | Const of int
  | Constf of float
  | Reg of int
  | Arg of int
  | Sym of string

type kind =
  | Binop of binop * value * value
  | Fbinop of fbinop * value * value
  | Icmp of cmp * value * value
  | Fcmp of cmp * value * value
  | Si_to_fp of value
  | Fp_to_si of value
  | Load of { ptr : value; size : int; is_float : bool }
  | Store of { ptr : value; size : int; is_float : bool; v : value }
  | Gep of { base : value; index : value; scale : int; offset : int }
  | Alloca of int
  | Call of { callee : string; args : value list }
  | Phi of (string * value) list
  | Select of value * value * value

type terminator =
  | Br of string
  | Cbr of value * string * string
  | Ret of value option
  | Unreachable

type instr = { id : int; mutable kind : kind }

type block = {
  label : string;
  mutable instrs : instr list;
  mutable term : terminator;
}

type func = {
  fname : string;
  nparams : int;
  mutable blocks : block list;
  mutable next_id : int;
}

type modul = {
  mutable funcs : func list;
  mutable globals : (string * int) list;
}

let create_module () = { funcs = []; globals = [] }

let add_global m name size = m.globals <- (name, size) :: m.globals

let find_func m name = List.find (fun f -> f.fname = name) m.funcs

let find_block f label = List.find (fun b -> b.label = label) f.blocks

let entry f =
  match f.blocks with
  | b :: _ -> b
  | [] -> invalid_arg "Ir.entry: function has no blocks"

let fresh_id f =
  let id = f.next_id in
  f.next_id <- id + 1;
  id

let defines_value = function
  | Store _ -> false
  | Call { callee; _ } ->
      (* Void runtime hooks are conventionally prefixed. *)
      not (String.length callee > 0 && callee.[0] = '!')
  | Binop _ | Fbinop _ | Icmp _ | Fcmp _ | Si_to_fp _ | Fp_to_si _
  | Load _ | Gep _ | Alloca _ | Phi _ | Select _ ->
      true

let successors = function
  | Br l -> [ l ]
  | Cbr (_, t, e) -> if t = e then [ t ] else [ t; e ]
  | Ret _ | Unreachable -> []

let instr_operands = function
  | Binop (_, a, b) | Fbinop (_, a, b) | Icmp (_, a, b) | Fcmp (_, a, b) ->
      [ a; b ]
  | Si_to_fp v | Fp_to_si v -> [ v ]
  | Load { ptr; _ } -> [ ptr ]
  | Store { ptr; v; _ } -> [ ptr; v ]
  | Gep { base; index; _ } -> [ base; index ]
  | Alloca _ -> []
  | Call { args; _ } -> args
  | Phi incoming -> List.map snd incoming
  | Select (c, a, b) -> [ c; a; b ]

let map_operands g = function
  | Binop (op, a, b) -> Binop (op, g a, g b)
  | Fbinop (op, a, b) -> Fbinop (op, g a, g b)
  | Icmp (op, a, b) -> Icmp (op, g a, g b)
  | Fcmp (op, a, b) -> Fcmp (op, g a, g b)
  | Si_to_fp v -> Si_to_fp (g v)
  | Fp_to_si v -> Fp_to_si (g v)
  | Load { ptr; size; is_float } -> Load { ptr = g ptr; size; is_float }
  | Store { ptr; size; is_float; v } ->
      Store { ptr = g ptr; size; is_float; v = g v }
  | Gep { base; index; scale; offset } ->
      Gep { base = g base; index = g index; scale; offset }
  | Alloca n -> Alloca n
  | Call { callee; args } -> Call { callee; args = List.map g args }
  | Phi incoming -> Phi (List.map (fun (l, v) -> (l, g v)) incoming)
  | Select (c, a, b) -> Select (g c, g a, g b)

let block_count f = List.length f.blocks

let instr_count f =
  List.fold_left (fun acc b -> acc + List.length b.instrs) 0 f.blocks

let module_instr_count m =
  List.fold_left (fun acc f -> acc + instr_count f) 0 m.funcs
