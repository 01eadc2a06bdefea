(** Interprocedural function summaries: return-value provenance,
    per-parameter escape, mod/ref effects, and custody preservation,
    computed by a bottom-up fixpoint over call-graph SCCs
    ({!Callgraph.fixpoint}); within a function, return provenance runs
    on {!Defuse.fixpoint}.

    Unknown external callees pin their callers at the conservative
    bottom. Recursive SCCs are seeded optimistically and iterated to a
    fixpoint; custody-safety is a greatest fixpoint, matching the
    checker's independent reachability-based re-derivation. *)

type prov =
  | Pnone  (** no pointer flows here (float math, comparisons) *)
  | Pheap
  | Pstack
  | Pglobal
  | From_arg of int
      (** derived from parameter [i]; offsets (GEPs) included *)
  | Punknown

type effects = {
  reads_heap : bool;
  writes_heap : bool;
  allocs : bool;
  frees : bool;
  calls_unknown : bool;  (** calls an external we have no body for *)
}

type fsum = {
  ret : prov;
  escapes : bool array;
      (** per parameter; tracks directly-flowing chains (stored, freed,
          or passed onward to an escaping position) *)
  eff : effects;
  custody_safe : bool;
      (** a call to this function preserves the caller's custody facts:
          no store, alloc, free, chunk-release, or write guard anywhere
          in its reachable call tree, all of which stays in-module *)
}

type env

val compute : ?max_rounds:int -> Ir.modul -> env
(** [max_rounds] ({!Callgraph.fixpoint}'s, default 50) caps each
    recursive SCC's fixpoint iteration; tripping it degrades the SCC to
    the sound bottom. Tests pass 0 to force the tripwire and exercise
    the lint's diagnosis. *)

val lookup : env -> string -> fsum option

val set : env -> string -> fsum -> unit
(** Overwrite a summary in place. Exists so tests can inject a
    deliberately wrong summary and watch the checker catch it. *)

val call_clobbers : ?env:env -> string -> bool
(** Custody predicate for a call site. Intrinsic callees keep their
    {!Intrinsics.clobbers_custody} semantics; other callees clobber
    unless [env] proves them custody-safe. Without [env] every
    non-intrinsic call clobbers — the pre-interprocedural behavior. *)

val bottom : nparams:int -> fsum
val is_bottom : fsum -> bool

val annotate : env -> Ir.instr -> string option
(** [!summary ...] comment for call instructions to non-intrinsic
    callees; [None] for everything else. *)

val to_string : Ir.modul -> env -> string
(** Deterministic dump: call graph (bottom-up SCCs, recursion marked)
    followed by each function's summary in module order. *)

val lint : Ir.modul -> env -> string list
(** Summary-coverage lint: one line per function stuck at bottom,
    naming the cause — a direct unknown callee (named), an opaque
    defined callee that reaches unknown externals (both named), or the
    recursive-SCC fixpoint round cap. Empty when every function has a
    precise summary. *)
