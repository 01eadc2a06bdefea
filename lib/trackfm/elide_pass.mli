(** Redundant-guard elimination and loop-invariant guard hoisting.

    Uses the checker's must-available custody dataflow
    ({!Tfm_checker.Facts}) to delete guards whose bytes are provably
    already in custody, widen guards across congruent struct fields,
    promote read guards under read-modify-write stores, and hoist
    guards on loop-invariant pointers to preheaders. Every deleted
    guard leaves a witness record the checker independently re-verifies
    ({!Tfm_checker.Coverage.check}). *)

type report = {
  elided_same : int;  (** deleted: dominating guard on the same pointer *)
  elided_congruent : int;  (** deleted: widened same-slot guard covers it *)
  elided_range : int;  (** deleted: counted loop guarded the interval *)
  upgraded : int;  (** read guards promoted to write guards *)
  widened : int;  (** guards whose span grew to absorb a neighbour *)
  hoisted : int;  (** guards moved to loop preheaders *)
  elisions : (string * Tfm_checker.Coverage.elision) list;
      (** per-function witness records for every deletion *)
}

val empty : report
(** The no-op report (elision disabled). *)

val total_elided : report -> int

val run :
  ?summaries:Tfm_analysis.Summary.env -> object_size:int -> Ir.modul -> report
(** Transforms the module in place. [object_size] caps congruent
    widening so a widened guard still spans at most one object. With
    [summaries], custody facts survive calls the interprocedural
    analysis proves custody-preserving, enabling cross-call redundant
    guard elimination; the pipeline's final witness re-check still runs
    through the checker's independent module-level re-derivation. *)
