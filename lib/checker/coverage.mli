(** Guard-coverage verifier (sanitizer for transformed IR).

    Proves every may-heap load/store is covered by **exactly one**
    protection mechanism: available custody — a guard or chunk access on
    the same bytes dominates it along every path with no intervening
    clobber ({!Facts}) — or an immediately-preceding page-path call (the
    hybrid data plane). A gap (neither) and double protection (both) are
    each violations carrying the offending instruction in guard-site
    attribution form ({!Telemetry.Site}). {!check} is the entry point:
    it also re-checks the elision and routing witnesses it is given,
    over one {!Induction.t} per function; the pipeline calls {!enforce},
    which raises {!Unsound} on any finding, so a transform bug fails
    compilation instead of becoming a silent far-memory crash. *)

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

val check_witnesses_func :
  call_clobbers:(string -> bool) -> Induction.t -> elision list -> string list
(** The witness re-check of one function's records: human-readable
    errors for records that no longer justify their elision, empty when
    all check out. It runs over the dominators, loops, def-use and
    induction variables of a structure the caller built, which a pass
    that changes blocks must rebuild. Instruction positions are read
    from {!Induction.func} on each call, so guard deletions and hoists
    since the structure was built do not change the verdict. {!check}
    calls it with {!module_call_clobbers}; the elision pass's
    pre-check, which deliberately trusts its own analysis, with its
    summaries. *)

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

(** {1 The check} *)

type report = {
  violations : violation list;  (** uncovered or double-protected accesses *)
  witness_errors : string list;
      (** elision witness records that no longer justify their elision *)
  routing_errors : string list;
      (** routing witnesses whose page call is missing, misplaced, on the
          wrong pointer/size/flavor, or claimed twice, plus any page call
          not owned by exactly one witness (the smuggled-call case) *)
}

val check :
  ?summaries:bool ->
  ?witnesses:(string * elision) list ->
  ?routes:(string * routing) list ->
  Ir.modul ->
  report
(** The checker's one entry point: coverage of every function, plus the
    re-check of the [witnesses] and [routes] records when given, from
    one {!Induction.analyze} per function. [summaries] (default [true])
    lets the checker compute its own interprocedural summaries from the
    module text — never reusing the pipeline's environment — so custody
    survives provably-safe calls while a corrupted producer summary
    still surfaces as uncovered accesses; pass [false] for the strict
    intraprocedural check. Witnesses are re-checked against
    {!module_call_clobbers}, an independent re-derivation, so a bug in
    the summaries that licensed an elision cannot vouch for itself. Each
    list is in module order. *)

exception Unsound of string list

val enforce :
  ?summaries:bool ->
  ?witnesses:(string * elision) list ->
  ?routes:(string * routing) list ->
  Ir.modul ->
  unit
(** {!check}, raising {!Unsound} with every finding (formatted
    violations, then witness errors, then routing errors) when there is
    any. *)
