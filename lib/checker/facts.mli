(** Forward must-available dataflow over custody facts.

    Computes, at every program point, which byte intervals are provably
    in custody: a guard or chunk access on every path already checked
    and localized them, and no call that may evict or free (allocation,
    free, opaque calls — see {!Ir.Intrinsics.clobbers_custody}) has
    intervened. The guard-coverage verifier asks it whether an access is
    covered; the elision pass asks it whether a guard is redundant. *)

module Int_set : Set.S with type elt = int

(** Facts are byte intervals relative to an anchor. [Val v] anchors at an
    SSA value; [Slot (base, index, scale)] anchors at [base + index*scale]
    so geps differing only in constant offset share facts. *)
type anchor = Val of Ir.value | Slot of Ir.value * Ir.value * int

type fact = {
  lo : int;
  hi : int;  (** byte interval [lo, hi) relative to the anchor *)
  write : bool;  (** write custody; covers read queries too *)
  chunk : bool;  (** chunk-protocol provenance: released at chunk_end *)
  witnesses : Int_set.t;  (** ids of the establishing calls *)
}

type state
type t

val analyze : ?summaries:Summary.env -> Induction.t -> t
(** Run the fixpoint over {!Induction.func} with the structure the
    caller built; the analysis builds none. The caller that owns the
    function snapshot builds it once: the elision pass before hoisting,
    which keeps it exact, the route pass for its classifier too, and the
    checker at each of its own check points. With [summaries], calls
    whose interprocedural summary proves custody preservation no longer
    clobber the fact state, so custody survives across helper calls. *)

val in_state : t -> string -> state
(** Facts available on entry to the labelled block. *)

val apply_instr : t -> state -> Ir.instr -> state
(** One-instruction transfer: guards/chunk accesses add facts, release
    points remove them, clobbers empty the state. *)

val anchors_of : t -> Ir.value -> (anchor * int) list
(** Anchor decompositions of a pointer: (anchor, byte delta) pairs at
    which an access through the pointer lands. *)

val facts_at : state -> anchor -> fact list

type hit = {
  covering : fact;
  anchor : anchor;
  delta_lo : int;
  delta_hi : int;  (** the queried interval at that anchor *)
}

val query :
  ?alive:(int -> bool) ->
  t ->
  state ->
  block:string ->
  Ir.value ->
  size:int ->
  write:bool ->
  hit option
(** Is an access of [size] bytes through the pointer covered at this
    point? [alive] filters facts whose witnesses were deleted by an
    in-progress transform. Tries the pointer's own anchors first, then
    the induction-range interval when the pointer strides a counted
    loop. *)
