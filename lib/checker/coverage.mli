(** Guard-coverage verifier (sanitizer for transformed IR).

    Proves every may-heap load/store is covered by **exactly one**
    protection mechanism: available custody — a guard or chunk access on
    the same bytes dominates it along every path with no intervening
    clobber ({!Facts}) — or an immediately-preceding page-path call (the
    hybrid data plane). A gap (neither) and double protection (both) are
    each violations carrying the offending instruction in guard-site
    attribution form ({!Telemetry.Site}); the pipeline raises {!Unsound}
    on any, so a transform bug fails compilation instead of becoming a
    silent far-memory crash. *)

type flaw =
  | Gap  (** covered by no mechanism at all *)
  | Double of int
      (** custody-covered AND paged; carries the page call's id *)

type violation = {
  func : string;
  block : string;
  instr : int;  (** the offending access *)
  is_store : bool;
  flaw : flaw;
  killer : int option;
      (** closest preceding custody clobber in the same block, if any *)
}

val violation_to_string : violation -> string

val check_module : ?summaries:bool -> Ir.modul -> violation list
(** [summaries] (default [true]) lets the checker compute its own
    interprocedural summaries from the module text — never reusing the
    pipeline's environment — so custody survives provably-safe calls
    while a corrupted producer summary still surfaces as uncovered
    accesses. Pass [false] for the strict intraprocedural check. *)

exception Unsound of string list

val enforce : ?summaries:bool -> Ir.modul -> unit
(** Raises {!Unsound} with formatted violations when the module has
    any uncovered may-heap access. *)

val module_call_clobbers : Ir.modul -> string -> bool
(** Independent custody re-derivation: does a call to this callee
    possibly disturb the caller's custody facts? Computed by direct
    reachability over the module (dirty-propagation through defined
    callees; anything escaping the module clobbers), sharing no code
    with {!Summary.compute}. *)

(** {1 Elision witnesses}

    Every guard the elision pass deletes leaves a record naming the
    access that lost its private guard, the rule used, and the surviving
    witness guard sites. These are re-checked through dominators and
    loop structure — independent machinery from the dataflow fixpoint
    that licensed the deletion. *)

type rule =
  | Same  (** dominating guard on the same SSA pointer *)
  | Congruent  (** widened guard on the same (base, index, scale) slot *)
  | Range  (** counted loop already guarded the whole interval *)
  | Hoist  (** guard moved to the loop preheader *)

type elision = { access : int; rule : rule; witness_ids : int list }

val check_witnesses :
  ?call_clobbers:(string -> bool) ->
  Ir.modul ->
  (string * elision) list ->
  string list
(** Returns human-readable errors for witness records that no longer
    justify their elision; empty means all records check out.
    [call_clobbers] defaults to {!module_call_clobbers} of the module —
    an independent re-derivation, so a bug in the summaries that
    licensed an elision cannot vouch for itself. *)

val check_witnesses_func :
  call_clobbers:(string -> bool) -> Induction.t -> elision list -> string list
(** {!check_witnesses} for one function's records, over the dominators,
    loops, def-use and induction variables of a structure the caller
    built, which a pass that changes blocks must rebuild. Instruction
    positions are read from {!Induction.func} on each call, so guard
    deletions and hoists since the structure was built do not change
    the verdict. *)

val enforce_witnesses : Ir.modul -> (string * elision) list -> unit
(** Raises {!Unsound} when any witness record fails re-checking. *)

(** {1 Routing witnesses}

    Every access the route pass moves onto the page path leaves a record
    naming the access, the page call that replaced its private guard,
    and the static class that justified the move ([cls] is attribution
    only — re-checking is purely structural and never re-runs the
    classifier). *)

type routing = {
  routed_access : int;  (** the load/store now covered by the page path *)
  page_call : int;  (** the page call immediately before it *)
  cls : string;  (** classifier evidence, e.g. "pointer-chase" *)
}

val check_routing : Ir.modul -> (string * routing) list -> string list
(** Returns human-readable errors: a witness whose page call is missing,
    misplaced, on the wrong pointer/size/flavor, or claimed twice — plus
    any page call in the module not owned by exactly one witness (the
    smuggled-call case). Empty means all records check out. *)

val enforce_routing : Ir.modul -> (string * routing) list -> unit
(** Raises {!Unsound} when any routing record fails re-checking. *)
