(** Byte-size units and formatting.

    Working sets in the simulation are expressed in bytes; sweeps are in
    percent-of-working-set, mirroring the paper's x axes. *)

val kib : int -> int
val mib : int -> int

val pp_bytes : Format.formatter -> int -> unit
(** Render e.g. [1536] as ["1.5KiB"]. *)

val bytes_to_string : int -> string

val pp_cycles : Format.formatter -> int -> unit
(** Render e.g. [34_000] as ["34.0Kcyc"]. *)

val cycles_to_string : int -> string
