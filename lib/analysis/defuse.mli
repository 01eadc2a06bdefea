(** Definition and placement maps over a function snapshot. *)

type t

val build : Ir.func -> t

val def : t -> int -> Ir.instr option
(** The instruction whose id is the given register, if any. *)

val block_of : t -> int -> string option
(** Label of the block containing the instruction with this id. *)
