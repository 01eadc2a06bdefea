(** Module-level call graph over direct calls.

    Callee names the runtime-ABI table ({!Intrinsics.classify})
    recognizes (guards, chunk protocol, allocators, bookkeeping hooks)
    are leaves, not edges. Remaining names either resolve to a function
    defined in the module — a graph edge — or are recorded as unknown
    external callees, which pin their caller at the conservative bottom
    summary. *)

type node = {
  name : string;
  callees : string list;  (** defined direct callees, first-call order *)
  unknown_callees : string list;  (** undefined non-intrinsic callees *)
}

type t

val build : Ir.modul -> t

val node : t -> string -> node option

val sccs : t -> string list list
(** Strongly connected components in bottom-up order: every SCC appears
    after the SCCs it calls into, which is the evaluation order for the
    interprocedural summary fixpoint. *)

val is_recursive : t -> string -> bool
(** In a multi-function SCC, or calls itself directly. *)

val fixpoint :
  ?max_rounds:int ->
  ?top_down:bool ->
  t ->
  Ir.modul ->
  seed:(Ir.func -> unit) ->
  step:(Ir.func -> bool) ->
  give_up:(Ir.func -> unit) ->
  unit
(** The call-graph fixpoint behind {!Summary.compute} and both phases of
    {!Shape.analyze}, over the module's functions in {!sccs} order
    (callers first with [top_down]). A non-recursive SCC gets one
    [step] per member. A recursive SCC is [seed]ed, then its members
    are stepped in rounds, in SCC order, until no [step] reports a
    change by returning [true]; if [max_rounds] (default 50) rounds
    pass first, each member goes to [give_up], which resets it to the
    analysis's sound default. *)

val reaches_unknown : t -> string -> string list
(** Unknown external callees reachable from the function through
    defined callees (sorted, deduped) — empty iff its whole call tree
    stays in the module. *)

val to_string : t -> string
(** Deterministic text rendering: one line per SCC (bottom-up, recursive
    SCCs marked) plus the edges out of each member. *)
