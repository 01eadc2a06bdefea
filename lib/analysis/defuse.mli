(** Definition and placement maps over a function snapshot. *)

type t

val build : Ir.func -> t

val def : t -> int -> Ir.instr option
(** The instruction whose id is the given register, if any. *)

val block_of : t -> int -> string option
(** Label of the block containing the instruction with this id. *)

val fixpoint :
  Ir.func ->
  (int, 'a) Hashtbl.t ->
  bot:'a ->
  join:('a -> 'a -> 'a) ->
  (Ir.instr -> 'a) ->
  unit
(** [fixpoint f tbl ~bot ~join transfer] runs a flow-insensitive value
    lattice over [f]'s registers to its fixpoint: it sweeps the
    value-defining instructions in block order, joins each one's
    [transfer] into [tbl] (an absent id reads [bot]), and stops after a
    sweep that changes nothing. [transfer] reads [tbl] itself, so a
    sweep sees the values it has already updated. {!Alias.analyze},
    {!Summary}'s return provenance and {!Shape}'s hop and link lattices
    all run on it. *)
