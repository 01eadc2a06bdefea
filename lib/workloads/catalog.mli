(** The workloads [trackfm_cli] runs by name ([-w NAME], [list]): the
    paper's programs and two pointer chases, at the CLI's sizes. *)

type entry = { workload : Workload.t; describe : string }

val all : unit -> entry list
(** The 15 named workloads, in [trackfm_cli list]'s order. Each call
    makes fresh records whose blobs and oracle nothing has forced yet. *)

val find : string -> entry option
(** The entry whose workload has this name. *)
