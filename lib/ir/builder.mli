(** Imperative construction of IR functions.

    A builder carries a current insertion block; instruction helpers append
    to it and return the defined value. Loop helpers construct the
    header/body/latch/exit skeleton with a proper phi-based induction
    variable, which is exactly the shape the induction-variable analysis
    (and thus the loop chunking pass) recognizes — the same way clang emits
    canonical loops that NOELLE analyses. *)

type t

val create : Ir.modul -> name:string -> nparams:int -> t
(** Create a function with an empty entry block and focus the builder on
    it. The function is registered in the module. *)

val func : t -> Ir.func

val arg : int -> Ir.value
(** Value of the i-th function parameter. *)

val add_block : t -> string -> string
(** [add_block b hint] creates a new (empty, unreachable-terminated) block
    with a unique label derived from [hint] and returns the label. Does not
    move the insertion point. *)

val set_block : t -> string -> unit
(** Move the insertion point to an existing block's end. *)

val current_label : t -> string

(** {1 Instructions} — each appends to the current block. *)

val binop : t -> Ir.binop -> Ir.value -> Ir.value -> Ir.value
val add : t -> Ir.value -> Ir.value -> Ir.value
val sub : t -> Ir.value -> Ir.value -> Ir.value
val mul : t -> Ir.value -> Ir.value -> Ir.value
val fbinop : t -> Ir.fbinop -> Ir.value -> Ir.value -> Ir.value
val icmp : t -> Ir.cmp -> Ir.value -> Ir.value -> Ir.value
val fcmp : t -> Ir.cmp -> Ir.value -> Ir.value -> Ir.value
val si_to_fp : t -> Ir.value -> Ir.value
val fp_to_si : t -> Ir.value -> Ir.value

val load : t -> ?size:int -> ?is_float:bool -> Ir.value -> Ir.value
(** Defaults: [size = 8], [is_float = false]. *)

val store : t -> ?size:int -> ?is_float:bool -> Ir.value -> ptr:Ir.value -> unit

val gep : t -> Ir.value -> index:Ir.value -> scale:int -> ?offset:int -> unit -> Ir.value
val alloca : t -> int -> Ir.value
val call : t -> string -> Ir.value list -> Ir.value
val phi : t -> (string * Ir.value) list -> Ir.value
val select : t -> Ir.value -> Ir.value -> Ir.value -> Ir.value

val patch_phi : t -> Ir.value -> string -> Ir.value -> unit
(** [patch_phi b (Reg id) pred v] adds/replaces the incoming [(pred, v)] arm
    of the phi defined by [id]. Needed to close loop backedges. *)

(** {1 Terminators} *)

val br : t -> string -> unit
val cbr : t -> Ir.value -> string -> string -> unit
val ret : t -> Ir.value option -> unit

(** {1 Structured helpers} *)

val for_loop :
  t ->
  ?hint:string ->
  init:Ir.value ->
  bound:Ir.value ->
  ?step:int ->
  (t -> Ir.value -> unit) ->
  unit
(** [for_loop b ~init ~bound body] emits a canonical counted loop
    [for (iv = init; iv < bound; iv += step) body iv]. The body callback may
    create nested blocks/loops; when it returns, the builder's current
    block is wired to the latch. After [for_loop], the insertion point is
    the exit block. [step] defaults to 1. *)

val for_loop_acc :
  t ->
  ?hint:string ->
  init:Ir.value ->
  bound:Ir.value ->
  ?step:int ->
  accs:Ir.value list ->
  (t -> iv:Ir.value -> accs:Ir.value list -> Ir.value list) ->
  Ir.value list
(** Counted loop with loop-carried accumulators. [accs] are the initial
    values; the body receives the current accumulator phis and returns
    their next-iteration values; the result is the accumulator values
    observable after the loop (the header phis, usable in the exit
    block). *)

val for_loop_down :
  t ->
  ?hint:string ->
  init:Ir.value ->
  bound:Ir.value ->
  ?step:int ->
  (t -> Ir.value -> unit) ->
  unit
(** Downward counted loop: [for (iv = init; iv > bound; iv -= step)].
    Mirrors [for_loop]; reverse array walks exercise the negative-stride
    paths of the chunking transform and prefetcher. [step] must be
    positive (it is subtracted). *)

val while_loop_acc :
  t ->
  ?hint:string ->
  accs:Ir.value list ->
  cond:(t -> accs:Ir.value list -> Ir.value) ->
  (t -> accs:Ir.value list -> Ir.value list) ->
  Ir.value list
(** General while loop with loop-carried state: [cond] is evaluated in the
    header over the current accumulator phis; while non-zero, the body
    runs and returns the next state. Result: the accumulator phis as
    visible after the loop. Unlike [for_loop]/[for_loop_acc] there is no
    induction variable, so such loops are never chunked. *)

val if_then :
  t ->
  cond:Ir.value ->
  (t -> unit) ->
  unit
(** Emit [if (cond) then-body]; insertion point ends at the join block. *)
