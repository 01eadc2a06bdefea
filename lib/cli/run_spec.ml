open Cmdliner
module Faults = Memsim.Faults
module Engine = Tfm_interp.Engine

(* -- the fabric: fault injection and the replicated remote tier -- *)

type fabric = {
  faults : Faults.config;
  fault_seed : int;
  replicas : int;
  ack : int;
}

let default_fabric =
  { faults = Faults.off; fault_seed = 1; replicas = 1; ack = 1 }

let injector f = Faults.create ~seed:f.fault_seed f.faults

let int_in ~lo ~hi =
  let parse s =
    match int_of_string_opt s with
    | Some n when lo <= n && n <= hi -> Ok n
    | _ -> Error (Printf.sprintf "%s is not an integer in %d..%d" s lo hi)
  in
  Arg.conv' (parse, Format.pp_print_int)

let faults_conv =
  let print ppf cfg = Format.pp_print_string ppf (Faults.to_string cfg) in
  Arg.conv' (Faults.parse, print)

let faults_arg =
  Arg.(
    value & opt faults_conv Faults.off
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Fabric fault injection: none, light, medium, heavy, or a \
           comma-separated spec of drop=P, timeout=P, spike=P:CYC[:ALPHA], \
           outage=PERIOD:LEN.")

let fault_seed_arg =
  Arg.(
    value & opt int 1
    & info [ "fault-seed" ] ~docv:"N"
        ~doc:
          "Seed for the fault injector's random stream; a fixed seed makes \
           the whole fault schedule (and every counter) reproducible.")

let replicas_arg =
  Arg.(
    value
    & opt (int_in ~lo:1 ~hi:8) 1
    & info [ "replicas" ] ~docv:"N"
        ~doc:
          "Number of remote memory nodes (1-8). With 1 and no crash/corrupt \
           faults the single-server model is kept bit for bit.")

let ack_arg =
  Arg.(
    value
    & opt (int_in ~lo:1 ~hi:8) 1
    & info [ "ack" ] ~docv:"K"
        ~doc:
          "Writebacks are acknowledged once $(docv) replicas hold the object \
           (1 <= K <= replicas); the remaining copies apply after a \
           replication lag.")

let fabric_term =
  let open Term.Syntax in
  Term.term_result' ~usage:true
    (let+ faults = faults_arg
     and+ fault_seed = fault_seed_arg
     and+ replicas = replicas_arg
     and+ ack = ack_arg in
     if ack > replicas then
       Error
         (Printf.sprintf "option '--ack': %d exceeds --replicas %d" ack
            replicas)
     else Ok { faults; fault_seed; replicas; ack })

let engine_term =
  Arg.(
    value
    & opt
        (enum (List.map (fun e -> (Engine.to_string e, e)) Engine.all))
        Engine.Interp
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Execution engine: interp (the tree-walking reference \
           interpreter, the differential oracle) or compiled (closure-\
           compiled, same observable behaviour, ~10x faster dispatch).")

(* -- the run spec: what to compile and how to run it -- *)

type system = [ `Local | `Trackfm | `Fastswap ]

let systems =
  [ ("local", `Local); ("trackfm", `Trackfm); ("fastswap", `Fastswap) ]

let system_name s = fst (List.find (fun (_, v) -> v = s) systems)

type t = {
  system : system;
  engine : Engine.t;
  local_pct : int;
  object_size : int;
  chunk : Trackfm.Chunk_pass.mode;
  route : Trackfm.Route_pass.mode;
  prefetch : bool;
  summaries : bool;
  shapes : bool;
  o1 : bool;
  fabric : fabric;
}

let system_arg =
  Arg.(
    value
    & opt (enum systems) `Trackfm
    & info [ "s"; "system" ] ~docv:"SYSTEM"
        ~doc:"Memory system: local, trackfm or fastswap.")

let local_pct_arg =
  Arg.(
    value & opt int 25
    & info [ "m"; "local-mem" ] ~docv:"PCT"
        ~doc:"Local memory as a percentage of the working set.")

let object_size_arg =
  let parse s =
    match int_of_string_opt s with
    | Some n when 64 <= n && n <= 65536 && n land (n - 1) = 0 -> Ok n
    | _ -> Error (Printf.sprintf "%s is not a power of two in 64..65536" s)
  in
  Arg.(
    value
    & opt (conv' (parse, Format.pp_print_int)) 4096
    & info [ "o"; "object-size" ] ~docv:"BYTES"
        ~doc:"TrackFM/AIFM object size (power of two, 64-65536).")

let chunk_arg =
  Arg.(
    value
    & opt (enum [ ("off", `Off); ("all", `All); ("gated", `Gated) ]) `Gated
    & info [ "c"; "chunk" ] ~docv:"MODE"
        ~doc:"Loop chunking mode: off, all, or gated (profiled cost model).")

let route_arg =
  Arg.(
    value
    & opt
        (enum [ ("off", `Off); ("static", `Static); ("profiled", `Profiled) ])
        `Off
    & info [ "route" ] ~docv:"MODE"
        ~doc:
          "Hybrid data plane (trackfm only): off, static (pointer-chasing \
           sites take the page-fault path, streaming sites keep guards), or \
           profiled (additionally upgrade mixed/unknown sites that a \
           profiling pre-run shows slow-path dominated).")

let no_prefetch_arg =
  Arg.(
    value & flag
    & info [ "no-prefetch" ] ~doc:"Disable compiler-directed prefetching.")

let no_summaries_arg =
  Arg.(
    value & flag
    & info [ "no-summaries" ]
        ~doc:
          "Disable interprocedural summaries: every call clobbers custody \
           and every call result classifies unknown (the pre-summary \
           pipeline).")

let no_shapes_arg =
  Arg.(
    value & flag
    & info [ "no-shapes" ]
        ~doc:
          "Disable the interprocedural shape analysis: helper-hidden \
           pointer chases classify unknown and static routing falls back \
           to intraprocedural evidence only.")

let o1_arg =
  Arg.(
    value & flag
    & info [ "o1" ] ~doc:"Run the O1 pre-optimization pipeline first.")

let term =
  let open Term.Syntax in
  Term.term_result' ~usage:true
    (let+ system = system_arg
     and+ engine = engine_term
     and+ local_pct = local_pct_arg
     and+ object_size = object_size_arg
     and+ chunk = chunk_arg
     and+ route = route_arg
     and+ no_prefetch = no_prefetch_arg
     and+ no_summaries = no_summaries_arg
     and+ no_shapes = no_shapes_arg
     and+ o1 = o1_arg
     and+ fabric = fabric_term in
     if route <> `Off && system <> `Trackfm then
       Error
         (Printf.sprintf "option '--route': %s routing needs --system trackfm"
            (Trackfm.Route_pass.mode_to_string route))
     else
       Ok
         {
           system;
           engine;
           local_pct;
           object_size;
           chunk;
           route;
           prefetch = not no_prefetch;
           summaries = not no_summaries;
           shapes = not no_shapes;
           o1;
           fabric;
         })
