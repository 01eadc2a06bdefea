(** IR interpreter.

    Executes a module against a {!Backend.t}, charging simulated cycles:
    one cycle per ALU/branch instruction, the backend's local-access cost
    per load/store, plus whatever the backend's allocation hooks and
    runtime intrinsics charge (guards, faults, network transfers).

    The interpreter computes real values — stores actually write the
    memstore, so workloads can assert functional results, which is how
    the test suite proves the transformation passes preserve program
    semantics. *)

exception Trap of string
(** Ill-typed operand, unknown callee, division by zero, out-of-fuel. *)

type result = {
  ret : int;               (** [main]'s return value (0 if [ret void]) *)
  cycles : int;            (** final simulated clock *)
  instrs_executed : int;
}

val run :
  ?profile:Profile.t ->
  ?shadow:Shadow.t ->
  ?fuel:int ->
  ?args:int list ->
  Backend.t ->
  Ir.modul ->
  entry:string ->
  result
(** [run backend m ~entry] executes [entry] (typically ["main"]).
    [profile] accumulates block execution counts for the chunking gate.
    [shadow] records per-site dependent-load depths (the shape
    analysis's dynamic audit). [fuel] bounds total executed instructions
    (default 2_000_000_000).

    @raise Verifier.Ill_formed if [m] fails {!Verifier.check_module},
    before anything runs: both engines execute only verified IR. *)

(** {2 Memory layout}

    Shared by both engines, so they place globals and stack frames at
    the same simulated addresses. *)

val max_call_depth : int
(** A call nested deeper than this traps ("call depth exceeded"). *)

val stack_base : int
(** Initial stack pointer; [alloca] bumps it. *)

val layout_globals : Ir.modul -> (string, int) Hashtbl.t
(** Each global's address: laid out from one fixed base in declaration
    order, each rounded up to 16 bytes. *)
