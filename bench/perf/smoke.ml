(* Smoke test of the benchmark: every workload at --quick sizes, untraced
   and traced, each twice. Checks that every metric BENCHMARK.json names
   is printed with its unit (and no other), that the simulated metrics
   repeat exactly across the two invocations, that traced spans are
   written, and that a bad workload name fails without a result.

     smoke.exe MAIN_EXE BENCHMARK_JSON *)

module Json = Telemetry.Json

let failures = ref 0

let check cond fmt =
  Printf.ksprintf
    (fun msg ->
      if not cond then begin
        incr failures;
        Printf.eprintf "smoke: %s\n%!" msg
      end)
    fmt

let get key j =
  match Json.member key j with
  | Some v -> v
  | None -> failwith ("missing key " ^ key)

let str = function Json.String s -> s | _ -> failwith "expected a string"
let list = function Json.List l -> l | _ -> failwith "expected a list"

let number = function
  | Json.Int n -> float_of_int n
  | Json.Float f -> f
  | _ -> failwith "expected a number"

(* Runs [exe args]; returns the exit code and stdout's lines. *)
let run exe args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let rec lines acc =
    match input_line ic with l -> lines (l :: acc) | exception End_of_file -> List.rev acc
  in
  let out = lines [] in
  let code = match Unix.close_process_in ic with Unix.WEXITED c -> c | _ -> -1 in
  (code, out)

(* Host timings and memory vary from run to run; everything else the
   benchmark prints is simulated or counted and must repeat exactly. *)
let exact (name, unit) =
  not (List.mem unit [ "s"; "ns"; "Minstr/s"; "MiB" ] || name = "trace.overhead")

let () =
  let exe =
    let e = Sys.argv.(1) in
    if Filename.is_implicit e then Filename.concat Filename.current_dir_name e else e
  in
  let spec =
    match Json.parse (In_channel.with_open_bin Sys.argv.(2) In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  let declared key =
    List.map (fun m -> (str (get "name" m), str (get "unit" m))) (list (get key spec))
  in
  let workloads = List.map (fun w -> str (get "name" w)) (list (get "workloads" spec)) in
  List.iter
    (fun w ->
      List.iter
        (fun (trace, key) ->
          let expected = List.sort compare (declared key) in
          let invoke i =
            let spans = Printf.sprintf "%s-%d.spans.jsonl" w i in
            let code, out =
              run exe
                [ "--workload"; w; "--quick"; "--trace"; string_of_int trace;
                  "--spans"; spans ]
            in
            let label = Printf.sprintf "%s --trace %d (run %d)" w trace i in
            check (code = 0) "%s exited %d" label code;
            let result =
              match Json.parse (List.nth out (List.length out - 1)) with
              | Ok j -> j
              | Error e -> failwith (label ^ ": last line is not JSON: " ^ e)
            in
            check (get "correct" result = Json.Bool true) "%s not correct" label;
            let metrics =
              match get "metrics" result with
              | Json.Obj kvs ->
                  List.map (fun (k, v) -> ((k, str (get "unit" v)), number (get "value" v))) kvs
              | _ -> []
            in
            check
              (List.sort compare (List.map fst metrics) = expected)
              "%s: metric names or units differ from BENCHMARK.json" label;
            if trace = 1 then
              check
                (Sys.file_exists spans
                && List.for_all
                     (fun l ->
                       match Json.parse l with
                       | Ok s ->
                           List.for_all
                             (fun k -> Json.member k s <> None)
                             [ "workload"; "rep"; "layer"; "name"; "start"; "end"; "parent" ]
                       | Error _ -> false)
                     (In_channel.with_open_bin spans In_channel.input_lines))
                "%s: spans file missing or malformed" label;
            List.filter (fun (m, _) -> exact m) metrics
          in
          let a = invoke 1 and b = invoke 2 in
          List.iter
            (fun (m, v) ->
              check (List.assoc_opt m b = Some v)
                "%s --trace %d: %s differs across invocations" w trace (fst m))
            a)
        [ (0, "end_to_end"); (1, "per_layer") ])
    workloads;
  let code, out = run exe [ "--workload"; "no-such-workload" ] in
  check (code <> 0 && out = []) "an unknown workload must fail without a result";
  if !failures > 0 then exit 1
