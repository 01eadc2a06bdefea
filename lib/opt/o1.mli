(** The complete -O1-style pre-optimization: what Figure 17b's "TFM/O1"
    configuration runs before the TrackFM passes.

    Order: inline small helpers ({!Inline}), promote stack slots to SSA
    ({!Mem2reg}) — both of which expose induction variables and strided
    accesses to the chunking pass — then the scalar cleanup fixpoint
    ({!Opt.run_o1}). *)

val run : Ir.modul -> int
(** Returns the total of inlined sites, promoted slots and eliminated
    instructions. Verifies the module afterwards. *)

val build : (unit -> Ir.modul) -> unit -> Ir.modul
(** [build b] is a builder of [b]'s modules with {!run} applied: the
    "TFM/O1" build of a workload. *)
