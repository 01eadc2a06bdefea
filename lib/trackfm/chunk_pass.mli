(** Loop chunking analysis and transformation (Sections 3.4 and 2).

    For every loop with a governing induction variable, strided accesses
    over a loop-invariant base are rewritten from per-access guards into
    the Figure 5 shape: a [!tfm_chunk_init] in the preheader, a cheap
    object-boundary check per access (the runtime call
    [tfm_chunk_access_*]), a locality invariant guard only at boundary
    crossings, and [!tfm_chunk_end] on the loop exits.

    Gate modes:
    - [`All] chunks every candidate (Figure 8/15's "all loops" line);
    - [`Gated] applies the Section 3.4 cost model — with a profile it uses
      measured trip counts, otherwise static object density (Eq. 3).
      The driver pre-runs only when a profile can change a verdict
      ({!needs_profile}): a loop whose trip count is a compile-time
      constant gets the same verdict from a profile as without one
      unless the cost model decides it differently at that count. *)

type mode = [ `Off | `All | `Gated ]

type candidate = {
  func : string;
  header : string;            (** loop header label *)
  base : Ir.value;            (** the strided pointer's base *)
  byte_stride : int;
  density : int;              (** object size / bytes-per-iteration *)
  accesses : int list;        (** instruction ids covered *)
  avg_trip : float option;    (** from the profile when available *)
  selected : bool;
}

type report = {
  candidates : candidate list;
  covered : (int, unit) Hashtbl.t;
      (** instruction ids now protected by chunk accesses — the guard
          pass must skip them *)
  chunk_sites : int;          (** handles allocated *)
}

val run :
  Cost_model.t ->
  object_size:int ->
  mode:mode ->
  ?profile:Profile.t ->
  Ir.modul ->
  report

val needs_profile : Cost_model.t -> object_size:int -> Ir.modul -> bool
(** Whether a profile can change a verdict of [run cost ~object_size
    ~mode:`Gated] on the module: true exactly when some candidate's loop
    has no {!Tfm_analysis.Induction.trip_count} [t], or the gate decides
    it differently at an average of [t] trips than with no profile. A
    profile gives such a loop [t] if it is entered and nothing
    otherwise, so when this is false [run] selects the same loops with
    or without one. It walks the candidates as [run] does, stopping at
    the first that needs it. *)
