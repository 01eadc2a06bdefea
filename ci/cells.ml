(* The pinned command lines ("cells") that ci/dune replays: the cheap
   groups under `dune runtest`, the slow ones under one alias each
   (@ci/durability, @ci/tracing, @ci/engines, @ci/hybrid, @ci/examples).

   A cell is one command line of trackfm_cli, of the bench harness or of
   an example, and the runs of it that must agree. Every run must exit
   with the cell's status (0 unless stated), write each of the cell's
   outputs (its stdout, or a file its arguments name) with the first
   run's bytes, and pass the cell's checks. A second interpreter run proves
   determinism; a run under --engine compiled proves the compiled engine
   matches the interpreter. Each run's stdout and stderr stay behind as
   <cell>.out and <cell>.err, and its files where its arguments put
   them: ci/dune diffs <cell>.json against golden/<cell>.json, and after
   an intended change `dune promote` refreshes the golden.

   Usage: cells.exe GROUP, run in _build/default/ci, which runs every
   cell of GROUP and reports each failing cell by name. *)

let sprintf = Printf.sprintf
let compiled = [ "--engine"; "compiled" ]

type output = Stdout | File of string

type cell = {
  group : string;
  name : string;
  command : string;  (** program, then arguments; split on spaces *)
  runs : string list list;  (** the extra arguments of each run *)
  outputs : output list;  (** what every run must write, as the first did *)
  status : int;  (** the exit status of every run *)
  checks : (output * (string -> (unit, string) result)) list;
      (** conditions on an output of every run *)
}

let program = function
  | "trackfm_cli" -> "../bin/trackfm_cli.exe"
  | "bench" -> "../bench/main.exe"
  | p when String.starts_with ~prefix:"examples/" p -> sprintf "../%s.exe" p
  | p -> failwith ("cells.exe: unknown program " ^ p)

let read path = In_channel.with_open_bin path In_channel.input_all
let describe = function Stdout -> "stdout" | File f -> f

(* [Ok ()] when this run wrote [want] to [output], else an error naming
   the first comma- or line-separated field where they differ. *)
let same ~from output want got =
  let fields s =
    List.concat_map (String.split_on_char ',') (String.split_on_char '\n' s)
  in
  let head = function x :: _ -> x | [] -> "(end)" in
  let rec go xs ys =
    match (xs, ys) with
    | x :: xs', y :: ys' when x = y -> go xs' ys'
    | _ -> (head xs, head ys)
  in
  if want = got then Ok ()
  else
    let w, g = go (fields want) (fields got) in
    Error
      (sprintf "%s differs from %s:\n  %s: %s\n  this run: %s"
         (describe output) from from w g)

(* -- checks ------------------------------------------------------------- *)

let ( let* ) = Result.bind

let contains text sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length text && (String.sub text i n = sub || go (i + 1))
  in
  go 0

let prints text =
  ( Stdout,
    fun out ->
      if contains out text then Ok ()
      else Error (sprintf "printed no %S" text) )

(* With [lost], the --counters-json record in [file] must count a
   positive net.lost_objects; without, it must not count it at all. *)
let lost_objects ~lost file =
  let open Telemetry.Json in
  ( File file,
    fun json ->
      let counted =
        match parse json with
        | Ok j -> Option.bind (member "counters" j) (member "net.lost_objects")
        | Error _ -> None
      in
      match (lost, counted) with
      | true, Some (Int n) when n > 0 -> Ok ()
      | false, None -> Ok ()
      | true, _ -> Error "counted no net.lost_objects"
      | false, Some n -> Error ("counted net.lost_objects " ^ to_string n) )

let same_as path output =
  (output, fun got -> same ~from:path output (read path) got)

(* The output ends with the bytes an earlier cell left in [path]. *)
let ends_with path output =
  ( output,
    fun got ->
      if String.ends_with ~suffix:(read path) got then Ok ()
      else Error (sprintf "%s does not end with %s" (describe output) path) )

let conforms schema output =
  ( output,
    fun got ->
      let parse what text =
        Result.map_error
          (sprintf "%s is not JSON: %s" what)
          (Telemetry.Json.parse text)
      in
      let* s = parse schema (read schema) in
      let* v = parse (describe output) got in
      Result.map_error
        (sprintf "wrote %s that violates %s: %s" (describe output) schema)
        (Telemetry.Json.validate ~schema:s v) )

(* -- the table ---------------------------------------------------------- *)

let cell ?(runs = [ [] ]) ?(outputs = []) ?(status = 0) ?(checks = []) group
    name command =
  { group; name; command; runs; outputs; status; checks }

(* A trackfm_cli run or serve whose JSON record (--counters-json or
   --serving-json) goes to <name>.json. *)
let json ?runs ?(outputs = []) ?checks group name command =
  let file = name ^ ".json" in
  let flag =
    if String.starts_with ~prefix:"serve " command then "--serving-json"
    else "--counters-json"
  in
  cell ?runs ?checks group name ~outputs:(File file :: outputs)
    (sprintf "trackfm_cli %s %s %s" command flag file)

let fault_run w seed =
  sprintf "run -w %s -s trackfm -m 25 --faults medium --fault-seed %d" w seed

(* Fault cells: interpreter twice, then compiled; goldened. *)
let fault w seed =
  json "faults" (sprintf "%s-seed%d" w seed) (fault_run w seed)
    ~runs:[ []; []; compiled ]

(* The fault runs without chunking: interpreter, then compiled. *)
let chunk_off w seed =
  json "chunk-off"
    (sprintf "%s-chunk-off-seed%d" w seed)
    (sprintf "run -w %s -s trackfm -m 25 -c off --faults medium --fault-seed %d"
       w seed)
    ~runs:[ []; compiled ]

(* Routed cells: interpreter twice, then compiled; goldened. *)
let routed w route pct =
  json "routed"
    (sprintf "hybrid-%s-%s-m%d" w route pct)
    (sprintf "run -w %s -s trackfm -m %d --route %s" w pct route)
    ~runs:[ []; []; compiled ]

(* Serving cells: run twice; goldened. *)
let serving backend rate =
  json "serving"
    (sprintf "serving-%s-r%d" backend rate)
    (sprintf
       "serve -b %s --rate %d --requests 1500 --keys 4096 --budget 32768 \
        --faults medium --fault-seed 1 --seed 42"
       backend rate)
    ~runs:[ []; [] ]

(* Static-analysis dumps: two runs print the same bytes. *)
let dump ?checks kind args w =
  cell "lint" (sprintf "%s-%s" kind w)
    (sprintf "trackfm_cli %s -w %s" args w)
    ~runs:[ []; [] ] ~outputs:[ Stdout ] ?checks

(* A bad flag is a usage error before anything runs. *)
let usage_error name command = cell "smoke" name command ~status:124

(* Under a crash schedule one node must lose data (wrong checksum, lost
   objects) and three nodes acking two must not; run twice. *)
let durability w seed replicas ack =
  let name = sprintf "durability-%s-seed%d-r%d" w seed replicas in
  let counters = name ^ ".json" in
  json "durability" name
    (sprintf
       "run -w %s -s trackfm -m 25 --faults crash=1500000:250000 \
        --fault-seed %d --replicas %d --ack %d"
       w seed replicas ack)
    ~runs:[ []; [] ]
    ~checks:
      (if replicas = 1 then [ prints "WRONG"; lost_objects ~lost:true counters ]
       else [ prints "(correct)"; lost_objects ~lost:false counters ])

(* Telemetry must not perturb the simulation: with the trace, spans and
   attribution all on, the counters equal the fault golden's. *)
let traced w seed =
  let name = sprintf "traced-%s-seed%d" w seed in
  let counters = name ^ ".json" and trace = name ^ ".trace.json" in
  json "tracing" name
    (sprintf "%s --trace %s --attribution %s.attribution.json"
       (fault_run w seed) trace name)
    ~outputs:[ File trace; File (name ^ ".attribution.json") ]
    ~checks:
      [
        same_as (sprintf "golden/%s-seed%d.json" w seed) (File counters);
        conforms "trace_schema.json" (File trace);
      ]

(* A fault run twice: the file [flag] writes must come out the same. *)
let rerun_writes flag kind w seed =
  let name = sprintf "%s-%s-seed%d" kind w seed in
  let file = sprintf "%s.%s.json" name kind in
  cell "tracing" name
    (sprintf "trackfm_cli %s %s %s" (fault_run w seed) flag file)
    ~runs:[ []; [] ] ~outputs:[ File file ]

let slo_spec = "lookup:p50<=100,p90<=30k,p999<=40k,mean<=20k,max<=40k"

let examples =
  [
    "quickstart"; "o0_to_far_memory"; "compiler_explorer";
    "remote_datastructures"; "concurrency_demo"; "autotune";
    "far_memory_cache";
  ]

let table =
  [
    fault "stream-sum" 1; fault "stream-sum" 2; fault "stream-sum" 3;
    fault "hashmap" 1; fault "hashmap" 2; fault "hashmap" 3;
    chunk_off "stream-sum" 1; chunk_off "stream-sum" 2;
    chunk_off "stream-sum" 3;
    chunk_off "hashmap" 1; chunk_off "hashmap" 2; chunk_off "hashmap" 3;
    (* The checker over every workload x configuration. *)
    cell "check" "check" "trackfm_cli check";
    routed "pointer-chase" "static" 25; routed "pointer-chase" "static" 100;
    routed "pointer-chase" "profiled" 25;
    routed "pointer-chase" "profiled" 100;
    routed "llist" "static" 25; routed "llist" "static" 100;
    (* Routing that finds nothing to route leaves an unrouted run's
       counters: llist without shape facts, and streaming analytics. *)
    json "routed" "llist-no-shapes" "run -w llist -s trackfm -m 25"
      ~runs:[ [ "--route"; "off" ]; [ "--route"; "static"; "--no-shapes" ] ];
    json "routed" "analytics-static" "run -w analytics -s trackfm -m 25"
      ~runs:[ [ "--route"; "off" ]; [ "--route"; "static" ] ];
    (* The shadow audit of statically routed llist: exit 1 on a mismatch. *)
    cell "routed" "llist-shadow" "trackfm_cli shape -w llist --shadow -m 100";
    serving "trackfm" 40; serving "trackfm" 130;
    serving "fastswap" 40; serving "fastswap" 130;
    serving "aifm" 40; serving "aifm" 130;
  ]
  @ List.map
      (dump "summaries" "summaries")
      [ "stream-sum"; "kmeans"; "analytics"; "hashmap" ]
  @ List.concat_map
      (fun w ->
        [
          dump "classify" "classify" w;
          dump "classify-json" "classify --json" w
            ~checks:[ conforms "classify_schema.json" Stdout ];
        ])
      [
        "stream-sum"; "kmeans"; "analytics"; "hashmap"; "memcached";
        "pointer-chase"; "llist";
      ]
  @ List.map (dump "shape" "shape")
      [ "llist"; "pointer-chase"; "analytics"; "hashmap" ]
  @ [
      cell "smoke" "bench-quick"
        "bench table1 fig6 --quick --metrics-dir metrics"
        ~outputs:[ File "metrics/table1.json"; File "metrics/fig6.json" ];
      cell "smoke" "bench-fabric"
        "bench table1 --quick --engine compiled --faults light --fault-seed 2 \
         --replicas 3 --ack 2 --metrics-dir metrics-fabric"
        ~outputs:[ File "metrics-fabric/table1.json" ];
      usage_error "bad-replicas" "bench table1 --quick --replicas 9";
      usage_error "bad-ack" "bench table1 --quick --ack 3 --replicas 2";
      usage_error "bad-faults" "bench table1 --quick --faults bogus";
      usage_error "bad-engine" "bench table1 --quick --engine foo";
      usage_error "missing-faults" "bench table1 --quick --faults";
      usage_error "bad-skew" "trackfm_cli serve --skew 0";
      usage_error "bad-rate" "trackfm_cli serve --rate nan";
      (* One SLO spec gives the same verdict table live as from the
         run's exported attribution file (p90 fails: exit 1). *)
      cell "smoke" "slo-export"
        "trackfm_cli run -w hashmap -s trackfm -m 25 --attribution \
         slo-export.json"
        ~outputs:[ File "slo-export.json" ];
      cell "smoke" "slo-from"
        (sprintf "trackfm_cli report slo --from slo-export.json --slo %s"
           slo_spec)
        ~status:1;
      cell "smoke" "slo-live"
        (sprintf "trackfm_cli report slo -w hashmap -s trackfm -m 25 --slo %s"
           slo_spec)
        ~status:1
        ~checks:[ ends_with "slo-from.out" Stdout ];
    ]
  @ List.concat_map
      (fun w ->
        List.concat_map
          (fun seed -> [ durability w seed 1 1; durability w seed 3 2 ])
          [ 1; 2 ])
      [ "stream-sum"; "analytics" ]
  @ List.concat_map
      (fun w -> List.map (traced w) [ 1; 2; 3 ])
      [ "stream-sum"; "hashmap" ]
  @ List.concat_map
      (fun w ->
        List.map (rerun_writes "--attribution" "attribution" w) [ 1; 2 ])
      [ "hashmap"; "kmeans" ]
  @ List.map (rerun_writes "--flight-recorder" "flight" "hashmap") [ 1; 2 ]
  @ [
      cell "engines" "check-compiled" "trackfm_cli check --engine compiled";
      (* Full size, so the ratio is measured on runs long enough to be
         stable. *)
      cell "engines" "engine-speedup" "bench engine_speedup";
      cell "hybrid" "hybrid-routing" "bench hybrid_routing --quick";
      cell "hybrid" "shape-routing" "bench shape_routing --quick";
    ]
  (* Every example runs to completion. *)
  @ List.map (fun e -> cell "examples" ("example-" ^ e) ("examples/" ^ e))
      examples

(* -- the runner --------------------------------------------------------- *)

(* [Ok ()] when [f] holds for every element, else the first error. *)
let all f xs =
  List.fold_left (fun acc x -> Result.bind acc (fun () -> f x)) (Ok ()) xs

(* Runs every invocation of one cell in turn; [Some reason] at the first
   that fails. *)
let run_cell c =
  let prog, args =
    match String.split_on_char ' ' c.command with
    | p :: args -> (p, args)
    | [] -> assert false
  in
  let stdout = c.name ^ ".out" and stderr = c.name ^ ".err" in
  let contents = function
    | Stdout -> read stdout
    | File f -> if Sys.file_exists f then read f else ""
  in
  let rec go first = function
    | [] -> None
    | extra :: rest -> (
        let argv = args @ extra in
        List.iter
          (function File f when Sys.file_exists f -> Sys.remove f | _ -> ())
          c.outputs;
        let status =
          Sys.command
            (Filename.quote_command (program prog) argv ~stdout ~stderr)
        in
        let got = List.map (fun o -> (o, contents o)) c.outputs in
        let verdict =
          let* () =
            if status = c.status then Ok ()
            else
              Error
                (sprintf "exited %d, want %d:\n%s%s" status c.status
                   (read stderr) (read stdout))
          in
          let* () =
            all
              (fun (o, bytes) ->
                if o = Stdout || bytes <> "" then Ok ()
                else Error ("did not write " ^ describe o))
              got
          in
          let* () = all (fun (o, check) -> check (contents o)) c.checks in
          match first with
          | None -> Ok ()
          | Some first ->
              all
                (fun ((o, want), (_, bytes)) ->
                  same ~from:"the first run" o want bytes)
                (List.combine first got)
        in
        match verdict with
        | Ok () -> go (Some got) rest
        | Error e ->
            Some (sprintf "`%s` %s" (String.concat " " (prog :: argv)) e))
  in
  Option.map (sprintf "cell %s: %s" c.name) (go None c.runs)

let () =
  match Sys.argv with
  | [| _; group |] ->
      let cells = List.filter (fun c -> c.group = group) table in
      if cells = [] then begin
        prerr_endline ("cells.exe: no cell in group " ^ group);
        exit 2
      end;
      let failures = List.filter_map run_cell cells in
      List.iter prerr_endline failures;
      if failures <> [] then exit 1
  | _ ->
      prerr_endline "usage: cells.exe GROUP";
      exit 2
