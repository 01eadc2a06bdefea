(** Pointer-guard analysis and transformation (Sections 3.1 and 3.3).

    The analysis marks every load/store that may touch heap memory (via
    the {!Tfm_analysis.Alias} classification); the transform prepends the
    compiler-injected guard call that performs the custody check and the
    fast/slow path logic at run time. Accesses already covered by the
    loop chunking transform are skipped — they carry the cheaper
    boundary-check protocol instead. *)

type report = {
  guarded_loads : int;
  guarded_stores : int;
  skipped_non_heap : int;
      (** accesses proven stack/global, left unguarded *)
  skipped_chunked : int;
}

val all_accesses : Ir.func -> (int * bool) list
(** Every load/store in one function: (instruction id, is_store). Each
    lands in exactly one {!report} bucket when {!run} processes it, so
    [guarded_loads + guarded_stores + skipped_non_heap + skipped_chunked]
    over a module equals the total across its functions. *)

val run :
  ?summaries:Tfm_analysis.Summary.env ->
  ?exclude:(int, unit) Hashtbl.t ->
  Ir.modul ->
  report
(** Insert guards module-wide, skipping ids in [exclude]. With
    [summaries] the alias classification consults interprocedural
    summaries, so pointers proven non-heap across calls (wrapper
    results that are really stack/global, pass-through helpers) skip
    their guards. *)
