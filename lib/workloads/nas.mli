(** NAS parallel benchmark kernels (Section 4.5, Figure 17, Table 3).

    Serial C++-style memory-access skeletons of the five NAS benchmarks
    the paper evaluates, scaled from their multi-GB classes to simulator
    sizes (the sweep axis is percent-of-working-set, so shapes carry):

    - {b CG}: conjugate-gradient core — CSR sparse mat-vec with an
      irregular gather on the vector, plus unit-stride vector updates;
    - {b FT}: 3-D FFT-like passes — sweeps along all three dimensions
      (unit, [nx], [nx*ny] strides) over an interleaved complex grid,
      written with the redundant loads typical of unoptimized bitcode
      (the O1 pre-pass removes them; Figure 17b);
    - {b IS}: integer bucket sort — histogram, prefix sum, scatter;
    - {b MG}: multigrid — 7-point stencil smoothing at two grid levels
      with restriction/prolongation;
    - {b SP}: scalar penta-diagonal-style line sweeps along each
      dimension with loop-carried dependences and redundant loads.

    Every kernel returns a quantized checksum that the OCaml reference
    ({!checksum}) reproduces exactly. *)

type kernel = CG | FT | IS | MG | SP

val kernel_name : kernel -> string
val all_kernels : kernel list

type params = {
  kernel : kernel;
  scale : int;
      (** linear size knob; [default_params] maps it so working sets are
          a few MiB, with the same cross-kernel ratios as Table 3 *)
}

val default_params : kernel -> params

val build : params -> unit -> Ir.modul

val working_set_bytes : params -> int

val checksum : params -> int

val workload : params -> Workload.t
(** ["nas-<kernel>"] at class [scale]. *)

val sub_class : kernel -> Workload.t
(** ["nas-<kernel>"] below class 1, which [params] cannot express: every
    dimension of [scale = 1] halved (CG's rows and IS's keys divided by
    eight), an eighth of its working set, with the same loops. For tests
    that need a kernel's access pattern at a fraction of its run time. *)

val paper_memory_gb : kernel -> int
(** Table 3's memory column (for reporting). *)

val paper_loc : kernel -> int
(** Table 3's lines-of-code column (for reporting). *)
