(** Byte-size units and formatting.

    Working sets in the simulation are expressed in bytes; sweeps are in
    percent-of-working-set, mirroring the paper's x axes. *)

val kib : int -> int
val mib : int -> int

val bytes_to_string : int -> string
(** Render e.g. [1536] as ["1.5KiB"]. *)

val cycles_to_string : int -> string
(** Render e.g. [34_000] as ["34.0Kcyc"]. *)
