(** The run flags shared by every executing command line: the CLI's
    [run], [report], [report critical-path], [report slo] and [serve], and
    the experiment harness [bench/main.exe].

    Every flag is parsed and validated here, once. Bad input (an unknown
    enum value, an out-of-range integer, a fault spec that does not parse,
    [--ack] above [--replicas], [--route] without trackfm) is a one-line
    Cmdliner error that names the flag, with exit status 124; it never
    reaches the simulator as an exception. *)

(** {1 Fabric} *)

type fabric = {
  faults : Memsim.Faults.config;
  fault_seed : int;
  replicas : int;  (** 1..8 *)
  ack : int;  (** 1..replicas *)
}
(** Fault injection and the replicated remote tier. *)

val default_fabric : fabric
(** No faults, seed 1, one replica, ack 1: the single-server model. *)

val injector : fabric -> Memsim.Faults.t
(** A fresh injector for one run (its random stream is stateful). Never
    raises on a fabric built by {!fabric_term}. *)

val fabric_term : fabric Cmdliner.Term.t
(** [--faults SPEC --fault-seed N --replicas N --ack K], with
    [1 <= ack <= replicas <= 8] enforced. *)

val engine_term : Tfm_interp.Engine.t Cmdliner.Term.t
(** [--engine interp|compiled]. *)

(** {1 Run spec} *)

type system = [ `Local | `Trackfm | `Fastswap ]

val system_name : system -> string

type t = {
  system : system;
  engine : Tfm_interp.Engine.t;
  local_pct : int;
  object_size : int;  (** power of two in 64..65536 *)
  chunk : Trackfm.Chunk_pass.mode;
  route : Trackfm.Route_pass.mode;  (** [`Off] unless [system = `Trackfm] *)
  prefetch : bool;
  summaries : bool;
  shapes : bool;
  o1 : bool;
  fabric : fabric;
}
(** One workload execution's configuration. *)

val term : t Cmdliner.Term.t
(** [-s -m -o -c --route --no-prefetch --no-summaries --no-shapes --o1],
    {!engine_term} and {!fabric_term}. *)

(** {1 Single flags}

    For commands that take only some of the run flags. *)

val local_pct_arg : int Cmdliner.Term.t
val object_size_arg : int Cmdliner.Term.t
val o1_arg : bool Cmdliner.Term.t

(** {1 Serving} *)

val serving_term : Workloads.Serving.params Cmdliner.Term.t
(** The [serve] flags: backend, offered load, tenants and their key
    space, skew and budget, the server model, the control plane, the
    traffic seed and {!fabric_term}. A count, size or cycle value out of
    range, or a rate or skew that is not a positive finite number, is a
    usage error naming the flag. *)
