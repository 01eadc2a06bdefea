(** A small LLVM-like intermediate representation.

    TrackFM's compiler passes operate on LLVM bitcode; this IR models the
    subset those passes need: integer/float arithmetic, loads and stores
    with byte sizes, pointer arithmetic ([Gep]), stack allocation, calls
    (including libc allocation calls that the TrackFM libc pass rewrites),
    phi nodes and structured control flow.

    Pointers and integers are plain OCaml [int]s: 63 bits is enough to
    carry TrackFM's non-canonical tag in bit 60 exactly as the paper's
    x86 encoding does.

    Functions and blocks are mutable so transformation passes can rewrite
    programs in place; analyses treat them as read-only. *)

type binop =
  | Add | Sub | Mul | Sdiv | Srem
  | And | Or | Xor | Shl | Lshr | Ashr

type fbinop = Fadd | Fsub | Fmul | Fdiv

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type value =
  | Const of int        (** integer (or pointer) literal *)
  | Constf of float     (** floating literal *)
  | Reg of int          (** result of the instruction with this id *)
  | Arg of int          (** function parameter by position *)
  | Sym of string       (** address of a named global *)

type kind =
  | Binop of binop * value * value
  | Fbinop of fbinop * value * value
  | Icmp of cmp * value * value
  | Fcmp of cmp * value * value
  | Si_to_fp of value
  | Fp_to_si of value
  | Load of { ptr : value; size : int; is_float : bool }
      (** [size] in bytes: 1, 2, 4 or 8. *)
  | Store of { ptr : value; size : int; is_float : bool; v : value }
  | Gep of { base : value; index : value; scale : int; offset : int }
      (** address computation: [base + index * scale + offset]. *)
  | Alloca of int       (** stack allocation of n bytes; yields a pointer *)
  | Call of { callee : string; args : value list }
  | Phi of (string * value) list
      (** one incoming value per predecessor block label. *)
  | Select of value * value * value

type terminator =
  | Br of string
  | Cbr of value * string * string  (** cond, then-label, else-label *)
  | Ret of value option
  | Unreachable

type instr = { id : int; mutable kind : kind }
(** [id] doubles as the SSA register this instruction defines; instructions
    with no result (stores, void calls) still get a unique id. *)

type block = {
  label : string;
  mutable instrs : instr list;
  mutable term : terminator;
}

type func = {
  fname : string;
  nparams : int;
  mutable blocks : block list;  (** entry block first *)
  mutable next_id : int;
}

type modul = {
  mutable funcs : func list;
  mutable globals : (string * int) list;  (** name, size in bytes *)
}

val create_module : unit -> modul

val add_global : modul -> string -> int -> unit
(** [add_global m name size] declares a global data region. *)

val find_func : modul -> string -> func
(** @raise Not_found if absent. *)

val find_block : func -> string -> block
(** @raise Not_found if absent. *)

val entry : func -> block
(** First block of the function. Requires at least one block. *)

val fresh_id : func -> int
(** Allocate a new instruction/register id. *)

val defines_value : kind -> bool
(** Whether an instruction kind produces a usable result. *)

val successors : terminator -> string list

val instr_operands : kind -> value list
(** All value operands (for phis, only the incoming values). *)

val map_operands : (value -> value) -> kind -> kind
(** Rewrite every operand, preserving structure. *)

val block_count : func -> int
val instr_count : func -> int
val module_instr_count : modul -> int

