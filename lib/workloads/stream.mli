(** STREAM (McCalpin) memory-bandwidth kernels as IR programs.

    The paper uses "Sum" ([sum += a2\[i\]]) and "Copy" ([a1\[i\] = a2\[i\]])
    over large integer arrays (Sections 4.1–4.3, Figures 7, 10, 11, 12);
    we add the classic Scale and Triad kernels for completeness. Arrays
    are heap-allocated through libc malloc so the TrackFM pipeline remotes
    them; elements default to 4-byte integers like the paper's.

    [checksum ~n ~kernel] gives the expected return value, letting tests
    prove the transformation preserved semantics under every backend. *)

type kernel = Sum | Copy | Scale | Triad

val kernel_name : kernel -> string

val build : ?elem_size:int -> n:int -> kernel:kernel -> unit -> Ir.modul
(** One pass of the kernel over [n]-element arrays. The program returns a
    checksum derived from the kernel's output. *)

val working_set_bytes : ?elem_size:int -> n:int -> kernel:kernel -> unit -> int
(** Bytes of heap the program touches (arrays only). *)

val checksum : ?elem_size:int -> n:int -> kernel:kernel -> unit -> int
(** Expected program return value. *)

val source_value : int -> int
(** The synthetic element stored at index [i] during initialization. *)
