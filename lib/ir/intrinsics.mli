(** Canonical table of the runtime-ABI intrinsics.

    One place that knows, for every callee name the passes emit, what the
    call means for object custody: does it establish custody (guards and
    chunk accesses), release it (chunk end), destroy it (allocation,
    free, or any opaque call that may drive the evacuator), or leave it
    alone (simulator bookkeeping). The guard injector, the structural
    verifier, and the static guard-coverage checker all read this table
    so their notions of "guard" and "clobber" can never drift apart. *)

val guard_read : string
val guard_write : string
val chunk_init : string
val chunk_access_read : string
val chunk_access_write : string
val chunk_end : string
val page_read : string
val page_write : string

type effect_ =
  | Guard of { write : bool }  (** custody check + localize *)
  | Chunk_access of { write : bool }
      (** boundary-checked access under a pinned chunk *)
  | Chunk_end  (** releases the chunk protocol's pins *)
  | Page of { write : bool }
      (** page-granular fault-in (hybrid data plane); materializes the
          page synchronously but establishes no custody *)
  | Alloc  (** may evict to make room *)
  | Free  (** invalidates and may reshuffle *)
  | Neutral  (** simulator hook; never evicts *)
  | Unknown  (** opaque call: assume the worst *)

val classify : string -> effect_

val is_guard : string -> bool
(** [true] exactly for the two plain guard intrinsics. *)

val is_page : string -> bool
(** [true] exactly for the two page-path intrinsics. *)

val is_custody_source : string -> bool
(** Guards and chunk accesses: calls that establish custody facts. *)

val custody_args : string -> (int * int) option
(** Argument positions [(ptr, size)] for custody sources. *)

val clobbers_custody : string -> bool
(** Calls after which previously established custody no longer holds. *)

val check_call : callee:string -> args:Ir.value list -> string option
(** Structural validity of an intrinsic call site; [Some msg] describes
    the malformation, [None] means well-formed (or not an intrinsic we
    check). *)
