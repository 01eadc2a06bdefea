(** Minimal JSON value type, serializer, parser and structural validator
    (no external dependency).

    Used by the Chrome-trace exporter, the benchmark harness's metrics
    emission, and the report/CI paths that read attribution files back
    ([report --from], trace-schema validation). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
val to_channel : out_channel -> t -> unit

val to_file : string -> t -> unit
(** [to_file path v] writes [v] and a newline to [path], closing the
    file even when a write fails. Raises [Sys_error] as [open_out]
    does. *)

val parse : string -> (t, string) result
(** Parse a complete JSON document. Errors name the byte offset
    (["expected ':' at offset 42"]) so garbled input files produce a
    clear message rather than an exception. Numbers parse to [Int] when
    integral, [Float] otherwise. *)

val member : string -> t -> t option
(** [member k (Obj kvs)] is the value bound to [k]; [None] on other
    constructors or a missing key. *)

val validate : schema:t -> t -> (unit, string) result
(** Structural check against a tiny self-hosted schema language (the
    schema is itself a JSON value): [{"type": T}] with [T] one of
    ["object"] (plus ["properties"]/["required"]), ["array"] (plus
    ["items"]), ["string"], ["int"], ["number"], ["bool"], ["null"],
    ["any"]. The error names the offending JSON path. *)
