(** Synthetic x86-lowering size estimates (for the Section 4.6 compilation
    cost study).

    We cannot emit machine code, but the paper's code-size claim is about
    instruction expansion: each guard lowers to the ~14-instruction
    sequence of Figure 4b, boundary checks to 3 instructions, and so on.
    This module assigns every IR instruction its lowered instruction
    count so the before/after ratio is comparable to the paper's. *)

val instr_weight : Ir.kind -> int
(** Lowered x86 instruction count for one IR instruction. *)

val module_size : Ir.modul -> int
