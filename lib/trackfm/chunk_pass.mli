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
      measured trip counts, otherwise static object density (Eq. 3). *)

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

val needs_profile : Ir.modul -> bool
(** Whether [run] would find a candidate in the module, and so whether
    a [`Gated] run reads its profile: true exactly when some loop with a
    preheader has a strided access with a nonzero stride. It walks the
    candidates as [run] does, stopping at the first. *)
