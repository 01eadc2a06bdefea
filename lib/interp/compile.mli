(** Compiled closure-based execution engine.

    Lowers each IR function to OCaml closures once per run — operand
    slots resolved to unboxed int/float array indices, binop/cmp cases
    and callees selected per site, globals resolved to addresses, and
    per-site page caches for 8-byte memory traffic — then drives blocks
    through an iterative trampoline. Observable behaviour (return value,
    cycles, instruction counts, every backend hook and telemetry call,
    and hence guard/fault/span/counter output) is bit-identical to
    {!Interp.run}, which stays around as the differential oracle; the
    [--engine compiled] runs of [ci/cells.ml] and [test/test_engine.ml]
    enforce the equivalence.

    Known, deliberate divergence: programs that mix int and float types
    in one SSA slot (e.g. a function returning [1] on one path and
    [2.0] on another) trap here at the ill-typed site, possibly earlier
    than the interpreter's lazy per-use coercion would. Well-typed
    programs — everything the front end emits — behave identically. *)

val run :
  ?profile:Profile.t ->
  ?fuel:int ->
  ?args:int list ->
  Backend.t ->
  Ir.modul ->
  entry:string ->
  Interp.result
(** Same contract as {!Interp.run}, including {!Interp.Trap} on runtime
    faults. Compilation happens eagerly at call time. *)

val test_miscompile : bool ref
(** Test-only: when set, [Add] is deliberately miscompiled (off by one)
    so the test suite can prove the differential oracle catches a bad
    closure. Always [false] outside the negative test. *)
