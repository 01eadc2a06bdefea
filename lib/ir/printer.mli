(** Textual rendering of IR, LLVM-flavoured, for debugging and golden
    tests. *)

val pp_instr : Format.formatter -> Ir.instr -> unit

val func_to_string : Ir.func -> string
val module_to_string : Ir.modul -> string

(** {1 Annotated rendering}

    [annot] supplies an optional trailing comment per instruction (the
    summaries dump uses it to tag call sites with [!summary ...]). The
    instruction text is produced by the same printers as the plain
    forms, so stripping the ["  ; ..."] suffixes round-trips to the
    unannotated dump. *)

val module_to_string_annotated :
  (Ir.instr -> string option) -> Ir.modul -> string
