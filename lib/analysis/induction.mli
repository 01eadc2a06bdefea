(** Induction-variable and strided-access detection.

    TrackFM's loop chunking pass needs to know, for each loop, which memory
    accesses walk an affine function of a loop-governing induction
    variable over a loop-invariant base pointer. NOELLE finds induction
    variables as patterns in the dependence graph rather than by syntactic
    variable matching; we mirror that by chasing def-use chains through
    arithmetic, so IVs survive intermediate [add]/[mul]/[shl] rewrites. *)

type iv = {
  phi_id : int;            (** register id of the header phi *)
  init : Ir.value;         (** value on loop entry *)
  step : int;              (** constant per-iteration increment *)
  header : string;         (** loop header label *)
  bound : Ir.value option; (** loop-governing bound when the header exits on
                               [iv < bound] (or [<=]) with invariant bound *)
}

type strided_access = {
  instr_id : int;          (** the load or store *)
  block : string;
  is_store : bool;
  access_size : int;       (** bytes per access *)
  base : Ir.value;         (** loop-invariant base pointer *)
  gep_offset : int;        (** constant byte displacement of the access *)
  iv : iv;
  byte_stride : int;       (** bytes advanced per loop iteration *)
}

type t

val const_of : Defuse.t -> Ir.value -> int option
(** Evaluate a value as a compile-time constant by chasing simple
    arithmetic defs. *)

val increment_of : Defuse.t -> int -> Ir.value -> int option
(** Does the value compute [phi + constant] (through an add/sub chain)?
    Returns the net constant increment. *)

val analyze : Ir.func -> t
(** The one structural analysis of a function: its def-use maps, its
    loops with their CFG and dominators ({!Loops.analyze}), and each
    loop's induction variables. No analysis builds it: whoever owns the
    function snapshot builds it once and hands it to every analysis it
    runs ({!Access_pattern.analyze}, the checker's custody facts and
    witness check). The chunking, elision and route passes build one
    per function, and the checker its own at each check point. The
    result belongs to the snapshot it was built from: moving, deleting
    or editing guard calls, whose results nothing uses, keeps it exact
    (the elision pass's hoist and all its sweep rounds share one), and
    a pass that changes blocks, terminators or value definitions must
    build it again. *)

val func : t -> Ir.func
(** The analyzed function. Instruction positions are read from it, not
    kept in the structure. *)

val loops : t -> Loops.t
val du : t -> Defuse.t

val ivs_of_loop : t -> Loops.loop -> iv list

val trip_count : t -> Loops.loop -> int option
(** The exact number of iterations that every entry of the loop runs,
    [max 0 (ceil ((B - I) / step))] ([B + 1] for [<=]). It is known only
    when the header ends in [cbr (icmp lt|le %iv, B)] with the in-loop
    target first, the IV's init [I] and bound [B] are constants
    ({!const_of}) and its step is positive, no other loop block leaves
    the loop or ends in [ret] or [unreachable], and the preheader ends
    in [br header], so each of its runs is one entry. A block profile
    of an entered loop then gives exactly this
    ({!Profile.avg_trip_count}). *)

val strided_accesses : t -> Loops.loop -> strided_access list
(** Accesses inside the given loop (not in nested sub-loops) whose address
    is [base + (a*iv + b) * scale + offset] with invariant [base]. *)

val is_loop_invariant : t -> Loops.loop -> Ir.value -> bool
