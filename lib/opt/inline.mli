(** Function inlining.

    TrackFM consumes whole-program bitcode (WLLVM links the entire
    application, Section 4's setup), so intra-procedural analyses see
    through what were call boundaries in the source. Our builder-made
    workloads are mostly single-function; this pass supplies the same
    effect for programs written with helpers: a loop body that calls
    [get(arr, i)] cannot be chunked — the strided access is hidden in the
    callee — until the call is inlined.

    Restrictions (skipped call sites): recursive callees, callees
    containing [alloca] (inlining would re-execute the allocation per
    iteration under our frame model), callees larger than 100
    instructions, and intrinsics/libc (not IR functions). *)

val inline_calls : Ir.modul -> int
(** Inline eligible call sites module-wide, repeating until a fixpoint
    (bounded). Returns the number of call sites inlined. The module is
    verified afterwards. *)
