(** Natural-loop detection.

    A back edge is a CFG edge [latch -> header] where the header dominates
    the latch; the loop body is everything that can reach the latch without
    passing through the header. Loops sharing a header are merged, and a
    nesting forest is derived by body inclusion — the same structural
    notion NOELLE exposes to TrackFM's loop chunking pass. *)

type loop = {
  header : string;
  latches : string list;
  body : string list;        (** includes header; function order *)
  preheader : string option; (** unique out-of-loop predecessor of header *)
  exits : string list;       (** blocks outside the loop targeted from inside *)
  depth : int;               (** 1 = outermost *)
  parent : string option;    (** header label of the enclosing loop *)
}

type t
(** The loops of one function snapshot, with the CFG and dominator tree
    they were found in. A pass that adds a block or changes a terminator
    must analyze the function again. *)

val analyze : Ir.func -> t
val cfg : t -> Cfg.t
val dominators : t -> Dominators.t

val loops : t -> loop list
(** All loops, outermost first. *)

val loop_of_block : t -> string -> loop option
(** The innermost loop containing the block, if any. *)

val innermost : t -> loop list
(** Loops that contain no other loop. *)

val contains : loop -> string -> bool
