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

(* An integer flag that accepts only values satisfying [ok]; anything
   else is "<value> is not <what>". *)
let int_where what ok =
  let parse s =
    match int_of_string_opt s with
    | Some n when ok n -> Ok n
    | _ -> Error (Printf.sprintf "%s is not %s" s what)
  in
  Arg.conv' (parse, Format.pp_print_int)

let int_in ~lo ~hi =
  int_where
    (Printf.sprintf "an integer in %d..%d" lo hi)
    (fun n -> lo <= n && n <= hi)

let int_from lo =
  int_where (Printf.sprintf "an integer >= %d" lo) (fun n -> n >= lo)

let pow2_in ~lo ~hi =
  int_where
    (Printf.sprintf "a power of two in %d..%d" lo hi)
    (fun n -> lo <= n && n <= hi && n land (n - 1) = 0)

let positive_float =
  let parse s =
    match float_of_string_opt s with
    | Some x when x > 0.0 && Float.is_finite x -> Ok x
    | _ -> Error (Printf.sprintf "%s is not a positive finite number" s)
  in
  Arg.conv' (parse, Arg.conv_printer Arg.float)

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
        Engine.default
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Execution engine: compiled (the default: closure-compiled, \
           same observable behaviour as the interpreter, measured 6.1-7.7x \
           faster on dispatch-bound microkernels and 4.2-6.3x on the \
           applications) or interp (the tree-walking reference \
           interpreter, the differential oracle).")

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
  Arg.(
    value
    & opt (pow2_in ~lo:64 ~hi:65536) 4096
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

(* -- the serving scenario's flags -- *)

module Serving = Workloads.Serving

let serving_term =
  let open Term.Syntax in
  (* A count must be >= 1; with [~lo:0], a cycle or page amount. *)
  let int_flag ?(lo = 1) name default ~docv ~doc =
    Arg.(value & opt (int_from lo) default & info [ name ] ~docv ~doc)
  in
  let switch name ~doc = Arg.(value & flag & info [ name ] ~doc) in
  let+ backend =
    Arg.(
      value
      & opt
          (enum
             (List.map
                (fun b -> (Serving.backend_name b, b))
                Serving.[ Trackfm; Fastswap; Aifm ]))
          Serving.Trackfm
      & info [ "b"; "backend" ] ~docv:"BACKEND"
          ~doc:"Far-memory backend: trackfm, fastswap or aifm.")
  and+ rate =
    Arg.(
      value & opt positive_float 30.0
      & info [ "rate" ] ~docv:"R"
          ~doc:
            "Offered load in requests per Mcycle across all tenants (open \
             loop: arrivals never slow down under backlog).")
  and+ requests =
    int_flag "requests" 20_000 ~docv:"N" ~doc:"Arrivals to generate."
  and+ tenants =
    int_flag "tenants" 2 ~docv:"N" ~doc:"Number of equal-weight tenants."
  and+ keys = int_flag "keys" 65_536 ~docv:"N" ~doc:"Key-space size per tenant."
  and+ skew =
    Arg.(
      value & opt positive_float 0.99
      & info [ "skew" ] ~docv:"S" ~doc:"Zipf skew of key popularity.")
  and+ value_size =
    Arg.(
      value
      & opt (pow2_in ~lo:8 ~hi:Memsim.Memstore.page_size) 64
      & info [ "value-size" ] ~docv:"BYTES"
          ~doc:"Bytes per value (multiple of 8, divides the 4 KiB page).")
  and+ budget =
    int_flag "budget" 65_536 ~docv:"BYTES"
      ~doc:"Per-tenant local-memory budget in bytes."
  and+ connections =
    int_flag "connections" 64 ~docv:"N"
      ~doc:"Concurrent connection-handler tasks."
  and+ service_cycles =
    int_flag ~lo:0 "service-cycles" 10_000 ~docv:"CYC"
      ~doc:"CPU cost of one request (parse, hash, respond)."
  and+ readahead =
    int_flag ~lo:0 "readahead" 2 ~docv:"PAGES"
      ~doc:"Fastswap readahead pages per fault (0 disables)."
  and+ queue_cap =
    int_flag ~lo:0 "queue-cap" 256 ~docv:"N"
      ~doc:"Accept-queue bound for admission control."
  and+ deadline =
    int_flag ~lo:0 "deadline" 500_000 ~docv:"CYC"
      ~doc:"Per-request latency deadline in cycles."
  and+ no_admission = switch "no-admission" ~doc:"Disable admission control."
  and+ no_shedding = switch "no-shedding" ~doc:"Disable load shedding."
  and+ no_degradation =
    switch "no-degradation"
      ~doc:"Disable graceful degradation (serve-stale, readahead shed)."
  and+ open_loop =
    switch "open-loop"
      ~doc:
        "Disable the whole control plane (equivalent to --no-admission \
         --no-shedding --no-degradation): the hockey-stick baseline."
  and+ fabric = fabric_term
  and+ seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Traffic seed (arrival gaps, tenant and key picks); a fixed seed \
             makes the whole run byte-for-byte reproducible.")
  in
  {
    Serving.backend;
    tenants =
      Serving.default_tenants ~n:tenants ~keys ~budget
      |> List.map (fun t -> { t with Serving.skew });
    rate;
    requests;
    service_cycles;
    value_size;
    connections;
    readahead;
    seed;
    controls =
      (if open_loop then Serving.open_loop
       else
         {
           Serving.admission = not no_admission;
           shedding = not no_shedding;
           degradation = not no_degradation;
           queue_cap;
           deadline;
         });
    faults = fabric.faults;
    fault_seed = fabric.fault_seed;
    replicas = fabric.replicas;
    ack = fabric.ack;
  }
