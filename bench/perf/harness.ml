(* Pieces both modes share: set-up, one untraced run timed through the
   [Driver]'s public hooks, the correctness gate, and medians. *)

(* -- correctness gate ------------------------------------------------------

   A run fails when it raises, when its checksum differs from the host
   oracle, or when anything it simulated differs from the reference run.
   Every failure is named on stderr and counted; a nonzero count makes the
   benchmark exit nonzero. *)

let attempted = ref 0
let failed = ref 0

let complain label msg = Printf.eprintf "FAIL %s: %s\n%!" label msg

(* [attempt label f] runs [f], which returns its result and the list of
   problems it found; any problem or exception counts one failed run,
   whose result is then dropped. *)
let attempt label f =
  incr attempted;
  match f () with
  | r, [] -> Some r
  | _, problems ->
      incr failed;
      List.iter (complain label) problems;
      None
  | exception e ->
      incr failed;
      complain label ("raised " ^ Printexc.to_string e);
      None

(* Everything a run simulated. Two runs of the same inputs must agree on
   all of it. *)
type observed = {
  ret : int;
  cycles : int;
  instrs : int;
  counters : (string * int) list;
  code_growth : float;
}

let observe (o : Driver.outcome) report =
  {
    ret = o.Driver.ret;
    cycles = o.cycles;
    instrs = o.instrs;
    counters = Clock.counters o.clock;
    code_growth = Trackfm.Pipeline.code_growth report;
  }

let counter obs name =
  Option.value ~default:0 (List.assoc_opt name obs.counters)

let differences ~oracle ~(reference : observed) (o : observed) =
  let diff what a b =
    if a = b then [] else [ Printf.sprintf "%s %s, reference %s" what a b ]
  in
  let counters =
    if o.counters = reference.counters then []
    else
      let names =
        List.sort_uniq compare (List.map fst (o.counters @ reference.counters))
      in
      List.concat_map
        (fun n ->
          diff ("counter " ^ n)
            (string_of_int (counter o n))
            (string_of_int (counter reference n)))
        names
  in
  (if o.ret = oracle then []
   else [ Printf.sprintf "checksum %d, host oracle %d" o.ret oracle ])
  @ diff "cycles" (string_of_int o.cycles) (string_of_int reference.cycles)
  @ diff "instrs" (string_of_int o.instrs) (string_of_int reference.instrs)
  @ diff "code_growth"
      (Printf.sprintf "%.17g" o.code_growth)
      (Printf.sprintf "%.17g" reference.code_growth)
  @ counters

(* -- set-up ----------------------------------------------------------------

   Input and blob generation, the host oracle checksum, and one IR build:
   the work a user pays once before the first run. *)

type setup = {
  start : float;
  input_s : float;
  oracle_s : float;
  build_s : float;
}

let setup_s s = s.input_s +. s.oracle_s +. s.build_s

let setup ~now (prog : Suite.program) =
  Gc.compact ();
  let t0 = now () in
  let blobs = prog.inputs () in
  let t1 = now () in
  let oracle = prog.oracle () in
  let t2 = now () in
  ignore (prog.build ());
  let t3 = now () in
  ( blobs,
    oracle,
    {
      start = t0;
      input_s = t1 -. t0;
      oracle_s = t2 -. t1;
      build_s = t3 -. t2;
    } )

(* Keep measuring until the wall-clock time [until], and at least
   [min_runs] times. *)
let repeat ~until ~min_runs f =
  let rec go i acc =
    if i >= min_runs && Unix.gettimeofday () >= until then List.rev acc
    else go (i + 1) (match f i with Some x -> x :: acc | None -> acc)
  in
  go 0 []

(* A repeated set-up must reproduce the first one's inputs. Its own are
   dropped, so the number of set-ups does not move peak memory. *)
let resetup ~now ~blobs ~oracle prog label =
  attempt label (fun () ->
      let b, o, s = setup ~now prog in
      ( s,
        if o = oracle && b = blobs then []
        else [ "repeated set-up produced different inputs" ] ))

(* -- one untraced run ------------------------------------------------------

   Exactly what [trackfm_cli run] does: [Driver.run_trackfm] with the
   profiling pre-run, compile and execute. Phase boundaries are taken
   from outside through [Driver]'s two hooks: the [build] thunk is
   called at profile start and at compile start, the [telemetry] factory
   right after [Pipeline.run]. At each boundary, outside the timed
   intervals, [speed] samples the host's speed and the heap is
   compacted. *)

type phases = { profile_s : float; compile_s : float; exec_s : float }

type times = {
  raw : phases;  (** as measured *)
  scaled : phases;
      (** each phase times the [Host_speed.factor] of the two samples
          around it *)
  factor : float;  (** [Host_speed.factor] of all the run's samples *)
}

let total_s p = p.profile_s +. p.compile_s +. p.exec_s

let timed_run ~now ~speed (w : Suite.t) (prog : Suite.program) blobs =
  let builds = ref 0 and factories = ref 0 in
  let opened = ref 0.0 and closed = ref [] and speeds = ref [] in
  let boundary () =
    let t = now () in
    if !builds + !factories > 0 then closed := (t -. !opened) :: !closed;
    speeds := speed () :: !speeds;
    Gc.compact ();
    opened := now ()
  in
  let build () =
    boundary ();
    incr builds;
    prog.build ()
  in
  let telemetry _clock =
    boundary ();
    incr factories;
    Telemetry.Sink.nop
  in
  let o, report =
    Driver.run_trackfm ~engine:w.engine ~blobs ~telemetry build
      (Suite.opts w prog)
  in
  closed := (now () -. !opened) :: !closed;
  speeds := speed () :: !speeds;
  let hooks =
    if !builds = 2 && !factories = 1 then []
    else
      [
        Printf.sprintf
          "build thunk called %d times (expected 2), telemetry factory %d \
           (expected 1)"
          !builds !factories;
      ]
  in
  let times =
    match (List.rev !closed, List.rev !speeds) with
    | [ p; c; e ], ([ s0; s1; s2; s3 ] as all) ->
        let at a b t = t *. Host_speed.factor [ a; b ] in
        {
          raw = { profile_s = p; compile_s = c; exec_s = e };
          scaled =
            { profile_s = at s0 s1 p; compile_s = at s1 s2 c;
              exec_s = at s2 s3 e };
          factor = Host_speed.factor all;
        }
    | _ ->
        let zero = { profile_s = 0.0; compile_s = 0.0; exec_s = 0.0 } in
        { raw = zero; scaled = zero; factor = 0.0 }
  in
  (observe o report, times, hooks)

(* A timed run that must reproduce [reference] (itself when absent) and
   the host [oracle]. *)
let checked_run ~now ~speed w prog ~blobs ~oracle ?reference label =
  attempt label (fun () ->
      let obs, times, hooks = timed_run ~now ~speed w prog blobs in
      let reference = Option.value reference ~default:obs in
      ((obs, times), hooks @ differences ~oracle ~reference obs))

(* -- statistics ------------------------------------------------------------ *)

let median l = Tfm_util.Stats.median (Array.of_list l)
