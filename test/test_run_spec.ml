(* Tests for the run flags shared by the CLI and the bench harness: the
   defaults, one-line errors naming the flag for every bad input, and a
   valid fabric reaching the fault injector. *)

open Cmdliner

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
    "engine interp" true
    (spec.Run_spec.engine = Engine.Interp);
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
        "compiled"; "--faults"; "medium"; "--fault-seed"; "2"; "--replicas";
        "3"; "--ack"; "2"; "--no-prefetch"; "--no-shapes";
      ]
  in
  Alcotest.(check bool)
    "every flag lands in its field" true
    (spec.Run_spec.system = `Fastswap
    && spec.Run_spec.local_pct = 50
    && spec.Run_spec.object_size = 64
    && spec.Run_spec.chunk = `Off
    && spec.Run_spec.engine = Engine.Compiled
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
    ]

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
    ] )
