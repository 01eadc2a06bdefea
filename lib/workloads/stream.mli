(** STREAM (McCalpin) memory-bandwidth kernels as IR programs.

    The paper uses "Sum" ([sum += a2\[i\]]) and "Copy" ([a1\[i\] = a2\[i\]])
    over large integer arrays (Sections 4.1–4.3, Figures 7, 10, 11, 12);
    we add the classic Scale and Triad kernels for completeness. Arrays
    are heap-allocated through libc malloc so the TrackFM pipeline remotes
    them; elements are 4-byte integers like the paper's.

    Each program returns a checksum derived from the kernel's output,
    which the record's host oracle predicts, letting tests prove the
    transformation preserved semantics under every backend. *)

type kernel = Sum | Copy | Scale | Triad

val kernel_name : kernel -> string

val workload : n:int -> kernel -> Workload.t
(** ["stream-<kernel>"]: one pass of the kernel over [n]-element arrays;
    its working set is the arrays. *)
