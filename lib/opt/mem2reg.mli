(** Promotion of stack slots to SSA registers (mem2reg).

    Unoptimized frontends keep every source variable in an [alloca]'d
    stack slot and load/store it around each use — the IR shape clang
    emits at -O0. Promoting those slots to SSA registers is the first
    thing -O1 does, and it matters here because the induction-variable
    analysis (and therefore TrackFM's loop chunking) only sees IVs that
    are phi nodes, not memory cells.

    An alloca is promotable when every use is directly the pointer of a
    load or store (never an operand of arithmetic, a call, a gep, or the
    stored value) and all its 8-byte accesses agree on floatness.
    Promotion uses block-local renaming with a phi per promoted variable
    at every join; {!Opt.dce} afterwards removes the phis that turn out
    dead. *)

val run : Ir.modul -> int
(** Promote every function's promotable allocas, then a {!Opt.dce}
    cleanup; verifies the module and returns how many were promoted. *)
