(* The pinned command lines ("cells") that `dune runtest` replays.

   A cell is one trackfm_cli command line and the runs of it that must
   agree. Each run of a [run] or [serve] cell writes its JSON
   (--counters-json or --serving-json), and every run's bytes must equal
   the first run's: a second interpreter run proves determinism, a run
   under --engine compiled proves the compiled engine matches the
   interpreter. The first run's JSON stays behind as <cell>.json, where
   ci/dune diffs it against golden/<cell>.json; after an intended change,
   `dune promote` refreshes the golden. A cell without JSON output
   ([check]) must exit 0; its output is shown only on failure.

   Usage: cells.exe TRACKFM_CLI GROUP, which runs every cell of GROUP
   and reports each failing cell by name. *)

let compiled = [ "--engine"; "compiled" ]

(* Each row: group, cell, trackfm_cli arguments (split on spaces), and
   the extra arguments of each run. *)

(* Fault cells: interpreter twice, then compiled; goldened. *)
let fault w seed =
  ( "faults",
    Printf.sprintf "%s-seed%d" w seed,
    Printf.sprintf
      "run -w %s -s trackfm -m 25 --faults medium --fault-seed %d" w seed,
    [ []; []; compiled ] )

(* The fault runs without chunking: interpreter, then compiled. *)
let chunk_off w seed =
  ( "chunk-off",
    Printf.sprintf "%s-chunk-off-seed%d" w seed,
    Printf.sprintf
      "run -w %s -s trackfm -m 25 -c off --faults medium --fault-seed %d" w
      seed,
    [ []; compiled ] )

(* Routed cells: interpreter twice, then compiled; goldened. *)
let routed w route pct =
  ( "hybrid",
    Printf.sprintf "hybrid-%s-%s-m%d" w route pct,
    Printf.sprintf "run -w %s -s trackfm -m %d --route %s" w pct route,
    [ []; []; compiled ] )

(* Serving cells: run twice; goldened. *)
let serving backend rate =
  ( "serving",
    Printf.sprintf "serving-%s-r%d" backend rate,
    Printf.sprintf
      "serve -b %s --rate %d --requests 1500 --keys 4096 --budget 32768 \
       --faults medium --fault-seed 1 --seed 42"
      backend rate,
    [ []; [] ] )

let table =
  [
    fault "stream-sum" 1; fault "stream-sum" 2; fault "stream-sum" 3;
    fault "hashmap" 1; fault "hashmap" 2; fault "hashmap" 3;
    chunk_off "stream-sum" 1; chunk_off "stream-sum" 2;
    chunk_off "stream-sum" 3;
    chunk_off "hashmap" 1; chunk_off "hashmap" 2; chunk_off "hashmap" 3;
    (* The checker over every workload x configuration: must exit 0. *)
    ("check", "check", "check", [ [] ]);
    routed "pointer-chase" "static" 25; routed "pointer-chase" "static" 100;
    routed "pointer-chase" "profiled" 25;
    routed "pointer-chase" "profiled" 100;
    routed "llist" "static" 25; routed "llist" "static" 100;
    serving "trackfm" 40; serving "trackfm" 130;
    serving "fastswap" 40; serving "fastswap" 130;
    serving "aifm" 40; serving "aifm" 130;
  ]

let json_flag = function
  | "run" :: _ -> Some "--counters-json"
  | "serve" :: _ -> Some "--serving-json"
  | _ -> None

let read path = In_channel.with_open_bin path In_channel.input_all

(* Runs trackfm_cli; its output is kept only to explain a nonzero exit. *)
let exec cli argv =
  let log = Filename.temp_file "cell" ".log" in
  let status =
    Sys.command (Filename.quote_command cli argv ~stdout:log ~stderr:log)
  in
  let output = read log in
  Sys.remove log;
  if status = 0 then Ok ()
  else Error (Printf.sprintf "exited %d:\n%s" status output)

(* The first comma-separated field where two JSON texts differ. *)
let first_difference a b =
  let head = function x :: _ -> x | [] -> "(end)" in
  let rec go xs ys =
    match (xs, ys) with
    | x :: xs', y :: ys' when x = y -> go xs' ys'
    | _ -> (head xs, head ys)
  in
  go (String.split_on_char ',' a) (String.split_on_char ',' b)

(* Runs every invocation of one cell in turn; [Some reason] at the first
   that fails or writes different JSON from the first run. *)
let run_cell cli (_, name, command, runs) =
  let args = String.split_on_char ' ' command in
  let json = json_flag args in
  let rec go first = function
    | [] -> None
    | extra :: rest -> (
        let out =
          if first = None then name ^ ".json"
          else Filename.temp_file name ".json"
        in
        let argv =
          args @ extra @ match json with Some f -> [ f; out ] | None -> []
        in
        let shown = String.concat " " ("trackfm_cli" :: argv) in
        let result = exec cli argv in
        let bytes = if Sys.file_exists out then read out else "" in
        if first <> None then Sys.remove out;
        match (result, first) with
        | Error e, _ -> Some (Printf.sprintf "`%s` %s" shown e)
        | Ok (), Some expected when expected <> bytes ->
            let want, got = first_difference expected bytes in
            Some
              (Printf.sprintf
                 "`%s` wrote different JSON from the first run:\n\
                 \  first run: %s\n\
                 \  this run:  %s"
                 shown want got)
        | Ok (), _ -> go (Some bytes) rest)
  in
  Option.map (Printf.sprintf "cell %s: %s" name) (go None runs)

let () =
  match Sys.argv with
  | [| _; cli; group |] ->
      let cells = List.filter (fun (g, _, _, _) -> g = group) table in
      if cells = [] then begin
        prerr_endline ("cells.exe: no cell in group " ^ group);
        exit 2
      end;
      let failures = List.filter_map (run_cell cli) cells in
      List.iter prerr_endline failures;
      if failures <> [] then exit 1
  | _ ->
      prerr_endline "usage: cells.exe TRACKFM_CLI GROUP";
      exit 2
