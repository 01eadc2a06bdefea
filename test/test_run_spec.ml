(* Tests for the run flags shared by the CLI and the bench harness, and
   for the serve flags: the defaults, one-line errors naming the flag for
   every bad input, and a valid fabric reaching the fault injector. *)

open Cmdliner
module Serving = Workloads.Serving

(* Evaluate [term] on [args] the way a command line would. [~catch:false]
   lets any exception escape, so a flag that raises fails the test. *)
let eval term args =
  let buf = Buffer.create 256 in
  let err = Format.formatter_of_buffer buf in
  let help = Format.formatter_of_buffer (Buffer.create 16) in
  let r =
    Cmd.eval_value ~help ~err ~catch:false
      ~argv:(Array.of_list ("t" :: args))
      (Cmd.v (Cmd.info "t") term)
  in
  Format.pp_print_flush err ();
  match r with
  | Ok (`Ok v) -> Ok v
  | Ok (`Help | `Version) -> Alcotest.fail "unexpected help/version"
  | Error _ -> Error (Buffer.contents buf)

let ok term args =
  match eval term args with
  | Ok v -> v
  | Error e -> Alcotest.failf "%s rejected: %s" (String.concat " " args) e

let test_defaults () =
  let spec = ok Run_spec.term [] in
  Alcotest.(check bool)
    "engine compiled" true
    (spec.Run_spec.engine = Engine.Compiled);
  Alcotest.(check bool)
    "fabric: faults none, seed 1, replicas 1, ack 1" true
    (spec.Run_spec.fabric
    = { Run_spec.faults = Faults.off; fault_seed = 1; replicas = 1; ack = 1 });
  Alcotest.(check bool)
    "default_fabric is the parsed default" true
    (ok Run_spec.fabric_term [] = Run_spec.default_fabric);
  Alcotest.(check bool)
    "trackfm, 25%, 4096B, gated, route off, everything on" true
    (spec.Run_spec.system = `Trackfm
    && spec.Run_spec.local_pct = 25
    && spec.Run_spec.object_size = 4096
    && spec.Run_spec.chunk = `Gated
    && spec.Run_spec.route = `Off
    && spec.Run_spec.prefetch && spec.Run_spec.summaries
    && spec.Run_spec.shapes && not spec.Run_spec.o1)

let test_valid_spec () =
  let spec =
    ok Run_spec.term
      [
        "-s"; "fastswap"; "-m"; "50"; "-o"; "64"; "-c"; "off"; "--engine";
        "interp"; "--faults"; "medium"; "--fault-seed"; "2"; "--replicas";
        "3"; "--ack"; "2"; "--no-prefetch"; "--no-shapes";
      ]
  in
  Alcotest.(check bool)
    "every flag lands in its field" true
    (spec.Run_spec.system = `Fastswap
    && spec.Run_spec.local_pct = 50
    && spec.Run_spec.object_size = 64
    && spec.Run_spec.chunk = `Off
    && spec.Run_spec.engine = Engine.Interp
    && spec.Run_spec.fabric.Run_spec.fault_seed = 2
    && spec.Run_spec.fabric.Run_spec.replicas = 3
    && spec.Run_spec.fabric.Run_spec.ack = 2
    && (not spec.Run_spec.prefetch)
    && not spec.Run_spec.shapes)

(* Each bad input is a usage error whose first line names the flag. *)
let test_bad_input () =
  List.iter
    (fun (term_name, args, flag) ->
      let result =
        match term_name with
        | `Spec -> Result.map ignore (eval Run_spec.term args)
        | `Fabric -> Result.map ignore (eval Run_spec.fabric_term args)
        | `Serving -> Result.map ignore (eval Run_spec.serving_term args)
      in
      match result with
      | Ok () -> Alcotest.failf "accepted %s" (String.concat " " args)
      | Error msg ->
          let first = List.hd (String.split_on_char '\n' msg) in
          let needle = Printf.sprintf "'%s'" flag in
          let rec contains i =
            i + String.length needle <= String.length first
            && (String.sub first i (String.length needle) = needle
               || contains (i + 1))
          in
          if not (contains 0) then
            Alcotest.failf "error for %s does not name %s: %s"
              (String.concat " " args) flag first)
    [
      (`Spec, [ "-c"; "bogus" ], "-c");
      (`Spec, [ "-o"; "100" ], "-o");
      (`Spec, [ "-o"; "32" ], "-o");
      (`Spec, [ "-o"; "131072" ], "-o");
      (`Spec, [ "-s"; "bogus" ], "-s");
      (`Spec, [ "--route"; "bogus" ], "--route");
      (`Spec, [ "--route"; "static"; "-s"; "fastswap" ], "--route");
      (`Spec, [ "--route"; "profiled"; "-s"; "local" ], "--route");
      (`Spec, [ "--replicas"; "9" ], "--replicas");
      (`Spec, [ "--replicas"; "0" ], "--replicas");
      (`Spec, [ "--ack"; "3"; "--replicas"; "2" ], "--ack");
      (`Spec, [ "--faults"; "bogus" ], "--faults");
      (`Spec, [ "--faults" ], "--faults");
      (`Spec, [ "--engine"; "foo" ], "--engine");
      (`Fabric, [ "--replicas"; "9" ], "--replicas");
      (`Fabric, [ "--faults" ], "--faults");
      (`Fabric, [ "--faults"; "drop=1.5" ], "--faults");
      (`Fabric, [ "--fault-seed"; "x" ], "--fault-seed");
      (`Serving, [ "--skew"; "0" ], "--skew");
      (`Serving, [ "--skew=-1" ], "--skew");
      (`Serving, [ "--skew"; "nan" ], "--skew");
      (`Serving, [ "--rate"; "nan" ], "--rate");
      (`Serving, [ "--rate"; "inf" ], "--rate");
      (`Serving, [ "--rate"; "0" ], "--rate");
      (`Serving, [ "--keys"; "0" ], "--keys");
      (`Serving, [ "--budget"; "0" ], "--budget");
      (`Serving, [ "--requests"; "0" ], "--requests");
      (`Serving, [ "--tenants"; "0" ], "--tenants");
      (`Serving, [ "--connections"; "0" ], "--connections");
      (`Serving, [ "--value-size"; "48" ], "--value-size");
      (`Serving, [ "--service-cycles=-1" ], "--service-cycles");
      (`Serving, [ "--readahead=-1" ], "--readahead");
      (`Serving, [ "--queue-cap=-1" ], "--queue-cap");
      (`Serving, [ "--deadline=-1" ], "--deadline");
      (`Serving, [ "--replicas"; "9" ], "--replicas");
    ]

(* The serve flags' defaults are the scenario the CLI has always run,
   and every flag lands in its field. *)
let test_serving_spec () =
  let p = ok Run_spec.serving_term [] in
  Alcotest.(check bool)
    "defaults: trackfm, 30 req/Mcyc, 20000 requests, two tenants" true
    (p.Serving.backend = Serving.Trackfm
    && p.Serving.rate = 30.0
    && p.Serving.requests = 20_000
    && List.length p.Serving.tenants = 2
    && p.Serving.controls = Serving.default_controls);
  let p =
    ok Run_spec.serving_term
      [
        "-b"; "aifm"; "--rate"; "40"; "--keys"; "4096"; "--budget"; "32768";
        "--skew"; "1.2"; "--open-loop"; "--faults"; "medium"; "--replicas";
        "3"; "--ack"; "2";
      ]
  in
  Alcotest.(check bool)
    "every flag lands in its field" true
    (p.Serving.backend = Serving.Aifm
    && p.Serving.rate = 40.0
    && List.for_all
         (fun t ->
           t.Serving.keys = 4096 && t.Serving.budget = 32768
           && t.Serving.skew = 1.2)
         p.Serving.tenants
    && p.Serving.controls = Serving.open_loop
    && p.Serving.replicas = 3 && p.Serving.ack = 2)

let test_fabric_reaches_injector () =
  List.iter
    (fun (faults, replicas, ack) ->
      let f =
        ok Run_spec.fabric_term
          [ "--faults"; faults; "--replicas"; replicas; "--ack"; ack ]
      in
      let inj = Run_spec.injector f in
      Alcotest.(check bool)
        (faults ^ " enabled iff not none")
        (faults <> "none") (Faults.enabled inj))
    [
      ("none", "1", "1"); ("light", "2", "1"); ("medium", "3", "2");
      ("heavy", "8", "8"); ("crash=1500000:250000", "3", "2");
      ("drop=0.02,timeout=0.01,outage=2000000:150000", "1", "1");
    ]

let suite =
  ( "run spec",
    [
      Alcotest.test_case "defaults" `Quick test_defaults;
      Alcotest.test_case "valid spec" `Quick test_valid_spec;
      Alcotest.test_case "bad input names the flag" `Quick test_bad_input;
      Alcotest.test_case "fabric reaches injector" `Quick
        test_fabric_reaches_injector;
      Alcotest.test_case "serve flags" `Quick test_serving_spec;
    ] )
