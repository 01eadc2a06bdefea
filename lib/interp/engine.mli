(** Execution-engine selection.

    [Interp] is the tree-walking reference interpreter and the
    differential oracle; [Compiled] is the closure-compiled engine with
    identical observable behaviour ({!Compile}). *)

type t = Interp | Compiled

val default : t
(** [Compiled]: the engine of every run that does not name one. The
    differential tests and the engine-parity cells pass [Interp]. *)

val all : t list
val to_string : t -> string

val run :
  ?profile:Profile.t ->
  ?shadow:Shadow.t ->
  ?fuel:int ->
  ?args:int list ->
  engine:t ->
  Backend.t ->
  Ir.modul ->
  entry:string ->
  Interp.result
(** Dispatch to {!Interp.run} or {!Compile.run}. [shadow] (the shape
    analysis's dynamic depth audit) is interpreter-only; passing it with
    [Compiled] raises [Invalid_argument]. *)
