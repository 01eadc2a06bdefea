(** Libc transformation pass (Section 3.1).

    Rewrites every libc heap-management call site ([malloc], [calloc],
    [realloc], [free]) into the TrackFM-managed equivalents backed by
    AIFM's region allocator, so every heap allocation returns a
    non-canonical pointer in the tracked range. *)

val run : Ir.modul -> int
(** Number of call sites rewritten. *)
