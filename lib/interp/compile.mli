(** Compiled closure-based execution engine.

    Lowers each IR function to OCaml closures once per run — operand
    slots resolved to unboxed int/float array indices, binop/cmp cases
    and callees selected per site, each runtime call site's handler
    taken from {!Backend.t.intrinsic} once, globals resolved to
    addresses, and address computations fused into the loads and
    stores they feed. A guarded access — [[gep;] call <intrinsic>;
    load|store], the sequence the TrackFM guard, chunk and routing
    passes emit — runs as one closure that computes the address, calls
    the site's handler and performs the access, with every slot write,
    site tag, tick and trap in the interpreter's order.
    Blocks are threaded: each block's entry closure charges the block,
    runs its body and tail-calls its successor's entry, and each CFG
    edge applies the successor's phis for that predecessor as moves,
    resolved at compile time and applied in phi order. A loop therefore
    runs in constant OCaml stack; the stack grows per IR call, not per
    block. A call reuses a zero-filled register frame of its callee and
    passes its arguments in fresh arrays, so it allocates only those.
    Observable behaviour (return value, cycles, instruction counts,
    every backend hook and telemetry call, and hence
    guard/fault/span/counter output) is bit-identical to {!Interp.run},
    which stays around as the differential oracle. The
    [--engine compiled] runs of [ci/cells.ml], [test/test_engine.ml] and
    [test/test_differential.ml] enforce the equivalence.

    Both engines run only verified IR: like {!Interp.run}, [run] calls
    {!Verifier.check_module} before compiling anything and raises its
    {!Verifier.Ill_formed} on a module that fails it.

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
(** Same contract as {!Interp.run}, including {!Verifier.Ill_formed}
    on a module the verifier rejects and {!Interp.Trap} on runtime
    faults. Compilation happens eagerly at call time. *)

val test_miscompile : bool ref
(** Test-only: when set, [Add] is deliberately miscompiled (off by one)
    so the test suite can prove the differential oracle catches a bad
    closure. Always [false] outside the negative test. *)
