(** Hybrid data-plane routing: per-site choice between guards and the
    page-fault path, driven by {!Tfm_analysis.Access_pattern}.

    Pointer-chasing sites have their private guard rewritten in place
    into a page call (same instruction id and operands, so the access
    stays adjacent to its protection); streaming sites keep guards;
    Mixed/Unknown sites keep guards unless the [`Profiled] mode's
    hotspot evidence upgrades them. Every rewrite is pre-checked against
    the custody dataflow (the access must not be covered by any other
    fact — exactly-one by construction) and leaves a routing witness the
    checker re-proves independently
    ({!Tfm_checker.Coverage.check}). *)

type mode = [ `Off | `Static | `Profiled ]

val mode_to_string : mode -> string

type report = {
  routed : int;  (** sites moved to the page path *)
  kept_pinned : int;  (** chasing sites kept: guard pinned by a witness *)
  kept_covered : int;  (** chasing sites kept: covered by another fact *)
  upgraded : int;  (** Mixed/Unknown sites routed by profile evidence *)
  classes : (string * Tfm_analysis.Access_pattern.site) list;
      (** full per-function classification, function order then
          ascending instruction id *)
  routes : (string * Tfm_checker.Coverage.routing) list;
      (** per-function witness records for every rewrite *)
  site_calls : ((string * int) * int) list;
      (** (function, protecting call id) -> access id for classified
          sites with an adjacent private call; bridges telemetry keys
          (which name the call) to classification keys (the access) *)
  alloc_shapes : ((string * int) * string) list;
      (** (function, allocation call id) -> structure kind for every
          allocation site the shape analysis resolved as recursive;
          placement-hint groundwork for the telemetry hotspot table *)
}

val empty : report
(** The no-op report (routing off). *)

val class_of_call :
  report -> func:string -> instr:int -> Tfm_analysis.Access_pattern.cls option
(** Static class of a site by its protecting call's instruction id (the
    key telemetry uses), via [site_calls]. *)

val shape_of_alloc : report -> func:string -> instr:int -> string option
(** Structure kind of an allocation call, via [alloc_shapes]. *)

val run :
  ?summaries:Tfm_analysis.Summary.env ->
  ?shapes:Tfm_analysis.Shape.env ->
  ?pinned:(string * int) list ->
  ?hotspots:(string * int) list ->
  mode:mode ->
  Ir.modul ->
  report
(** Transforms the module in place. [shapes] lets the classifier see
    dereference chains through helper calls (and fills [alloc_shapes]);
    the coverage checker stays independent of it. [pinned] lists
    (function, guard id) pairs that must stay guards — the elision
    witnesses. [hotspots] lists (function, instr id) pairs the profile
    shows slow-path dominated; only consulted in [`Profiled] mode, and
    only ever to upgrade Mixed/Unknown sites to the page path. *)
