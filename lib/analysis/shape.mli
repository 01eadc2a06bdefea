(** Interprocedural shape analysis: recursive-structure detection that
    sees pointer chases through helper calls.

    A bottom-up fixpoint over {!Callgraph} SCCs ({!Callgraph.fixpoint},
    which {!Summary.compute} runs on too) infers, per allocation
    site, whether the allocated objects form a recursive linked
    structure (self-referential field stores: list / tree / DAG-ish
    graph) and which field offsets are link fields; and per function,
    [ret_hops] ("the return value is parameter [i] after [d] loaded
    hops", generalizing [Summary.From_arg] which is the [d = 0] case)
    plus a per-parameter chase-through depth; within a function, the
    hop and link lattices run on {!Defuse.fixpoint}. A recursive SCC
    that trips its round cap falls back to no facts. A second,
    top-down pass (the same fixpoint, callers first) then folds call-chain
    context into each function: the maximum chain depth and the
    allocation-site provenance flowing into every parameter — which is
    what lets a load *inside* a `node_next` helper classify as
    pointer-chasing with the caller's chain. Its tripwire drops the
    SCC's depths to 0 and its provenance to [Gtop].

    Advice with a dynamic audit, never proof: {!Access_pattern} and the
    route pass consume these facts; the coverage checker re-proves the
    resulting guards-vs-paging split without reading them; and the
    interpreter's shadow recorder cross-checks claimed depths against
    observed ones in CI. *)

val depth_cap : int
(** Chain depths saturate here (statically and in the interpreter's
    shadow recorder, which mirrors the value); the saturation is what
    keeps the recursive-SCC fixpoint finite. *)

type struct_kind = Scalar | List | Tree | Graph

val kind_to_string : struct_kind -> string
val kind_is_recursive : struct_kind -> bool

type alloc_site = {
  alloc_id : int;
  alloc_block : string;
  kind : struct_kind;
  link_offsets : int list;  (** sorted distinct known link-field offsets *)
  unknown_link : bool;  (** a self-link whose field offset is unresolvable *)
}

type fshape = {
  ret_hops : (int * int) option;
      (** return value = parameter [i] after [d] loaded hops *)
  chases : int array;
      (** per parameter: max dependent-load depth performed on addresses
          derived from it (transitively through callees); [> 0] is the
          chase-through bit *)
  links : (int * int * int option) list;
      (** stores parameter [src] into a field of parameter [dst] *)
  allocs : alloc_site list;  (** ascending allocation instruction id *)
}

type gprov = Gbot | Gsite of string * int | Gtop
(** Module-global allocation-site provenance of a pointer value. *)

type ctx = {
  arg_depth : int array;
      (** max chain depth flowing into each parameter over all call
          chains, saturated at {!depth_cap} *)
  arg_struct : gprov array;
      (** allocation-site provenance flowing into each parameter *)
}

type env

val analyze : Ir.modul -> env
(** Both passes; deterministic for a given module. *)

val summary : env -> string -> fshape option
val context : env -> string -> ctx option
val site_of : env -> string * int -> alloc_site option
(** Allocation site by [(function, alloc instruction id)]. *)

val set : env -> string -> fshape -> unit
(** Tamper hook: tests inject a lying shape summary and watch the
    shadow validator (never the checker, which does not read shape
    facts) catch the misroute. *)

val set_context : env -> string -> ctx -> unit

val value_depth : env -> fname:string -> (int -> Ir.instr option) -> Ir.value -> int
(** Absolute chain depth of a value in [fname]'s body (a def lookup,
    e.g. [Defuse.def du]), with the calling context's per-parameter
    depths folded in and callee [ret_hops] continuing chains across
    calls. *)

val value_kind :
  env -> fname:string -> (int -> Ir.instr option) -> Ir.value -> struct_kind option

val dump : env -> Ir.modul -> string
(** Deterministic text dump (module order; allocation sites, summaries,
    contexts). The [shape] CLI subcommand prints this; CI byte-compares
    two runs and diffs four workloads' dumps against goldens. *)
