(* The traced run: the same run as [Driver.run_trackfm], rebuilt from
   public pieces so that each layer can be timed from outside.

   - profile: [Driver.profile_of];
   - compile: [Trackfm.Pipeline.run] with [Driver]'s configuration plus
     a [dump_after] hook that timestamps each stage;
   - runtime: [Trackfm.Runtime.create] and [Backend.trackfm], whose
     intrinsic dispatcher is wrapped to time and count every call, and a
     blob loader like [Driver]'s;
   - engine: [Engine.run].

   Per-call timers need a clock far cheaper than a CPU-time syscall, so
   every traced timing uses the monotonic clock (wall time, ns). Spans
   are kept in memory and written out when the benchmark ends. *)

let now_ns () = Monotonic_clock.now ()
let now () = Int64.to_float (now_ns ()) *. 1e-9

type span = {
  rep : int;
  layer : string;
  name : string;
  start : float;
  stop : float;
  parent : string option;
}

let spans : span list ref = ref []

let span ?parent ~rep ~layer name start stop =
  spans := { rep; layer; name; start; stop; parent } :: !spans

let write_spans ~workload file =
  let open Telemetry.Json in
  let oc = open_out file in
  List.iter
    (fun s ->
      to_channel oc
        (Obj
           [
             ("workload", String workload);
             ("rep", Int s.rep);
             ("layer", String s.layer);
             ("name", String s.name);
             ("start", Float s.start);
             ("end", Float s.stop);
             ("parent", match s.parent with Some p -> String p | None -> Null);
           ]);
      output_char oc '\n')
    (List.rev !spans);
  close_out oc

(* -- runtime intrinsic accounting ----------------------------------------- *)

let groups = [| "guard"; "chunk"; "page"; "alloc"; "blob"; "other" |]
let blob_group = 4

let group_of = function
  | "tfm_guard_read" | "tfm_guard_write" -> 0
  | "tfm_chunk_access_read" | "tfm_chunk_access_write" | "!tfm_chunk_init"
  | "!tfm_chunk_end" ->
      1
  | "tfm_page_read" | "tfm_page_write" -> 2
  | "tfm_malloc" | "tfm_calloc" | "tfm_realloc" | "tfm_free" -> 3
  | "!load_blob" -> blob_group
  | _ -> 5

type calls = { count : int array; ns : int array }

(* [Driver]'s blob loader: [!load_blob ptr id] copies input blob [id]
   into simulated memory without charging cycles. *)
let with_blobs blobs (b : Backend.t) =
  {
    b with
    Backend.intrinsic =
      (fun name args ->
        if name <> "!load_blob" then b.Backend.intrinsic name args
        else
          match List.assoc_opt args.(1) blobs with
          | None -> failwith (Printf.sprintf "unknown blob %d" args.(1))
          | Some bytes ->
              Bytes.iteri
                (fun k c ->
                  Memstore.store b.Backend.store ~addr:(args.(0) + k) ~size:1
                    (Char.code c))
                bytes;
              Some 0);
  }

let timed_intrinsics calls (b : Backend.t) =
  {
    b with
    Backend.intrinsic =
      (fun name args ->
        let g = group_of name in
        let t0 = now_ns () in
        let r = b.Backend.intrinsic name args in
        let dt = Int64.to_int (Int64.sub (now_ns ()) t0) in
        calls.count.(g) <- calls.count.(g) + 1;
        calls.ns.(g) <- calls.ns.(g) + dt;
        r);
  }

(* -- one traced run --------------------------------------------------------

   Returns what it simulated and its per-layer timings and counts, as
   (metric name, value) pairs. *)

let run ~rep (w : Suite.t) (prog : Suite.program) blobs =
  let opts = Suite.opts w prog in
  let span = span ~rep in
  Gc.compact ();
  let t0 = now () in
  let profile = Driver.profile_of ~engine:w.engine ~blobs prog.build in
  let t1 = now () in
  span ~layer:"profile" "run" t0 t1;
  let m = prog.build () in
  Gc.compact ();
  let stages = ref [] in
  let dump name _ = stages := (name, now ()) :: !stages in
  let c0 = now () in
  let report =
    Trackfm.Pipeline.run (Suite.pipeline_config opts ~dump_after:dump profile) m
  in
  let c1 = now () in
  span ~layer:"compile" "pipeline" c0 c1;
  (* Each stage's time is the interval since the previous stage's dump,
     so a checker call falls into the stage after the one it checks; the
     checks after the last stage form their own interval. *)
  let stage_times, last =
    List.fold_left
      (fun (acc, prev) (name, t) ->
        span ~parent:"pipeline" ~layer:"compile" name prev t;
        ((name, t -. prev) :: acc, t))
      ([], c0) (List.rev !stages)
  in
  span ~parent:"pipeline" ~layer:"compile" "final-check" last c1;
  Gc.compact ();
  let clock = Clock.create () in
  let store = Memstore.create () in
  let rt =
    Trackfm.Runtime.create ~use_state_table:opts.Driver.use_state_table
      ~prefetch:opts.prefetch ~faults:opts.faults Cost_model.default clock
      store ~object_size:opts.object_size ~local_budget:opts.local_budget
  in
  let n = Array.length groups in
  let calls = { count = Array.make n 0; ns = Array.make n 0 } in
  let backend =
    timed_intrinsics calls (with_blobs blobs (Backend.trackfm rt store))
  in
  let e0 = now () in
  let r = Engine.run ~engine:w.engine backend m ~entry:"main" in
  let e1 = now () in
  span ~layer:"engine" "run" e0 e1;
  let outcome =
    { Driver.ret = r.Interp.ret; cycles = r.cycles; instrs = r.instrs_executed;
      clock }
  in
  let secs g = float_of_int calls.ns.(g) *. 1e-9 in
  let engine_s = e1 -. e0 in
  let runtime_s = Array.fold_left ( + ) 0 calls.ns in
  let stage name =
    Option.value ~default:0.0 (List.assoc_opt name stage_times)
  in
  let layer =
    [
      ("profile.run_s", t1 -. t0);
      ("compile.run_s", c1 -. c0);
    ]
    @ List.map
        (fun s -> (Printf.sprintf "compile.%s_s" s, stage s))
        [ "runtime-init"; "loop-chunking"; "summaries"; "guard-transform";
          "guard-elision"; "hybrid-routing"; "libc-transform" ]
    @ [
        ("compile.final-check_s", c1 -. last);
        ("engine.run_s", engine_s);
        ("engine.self_s", engine_s -. (float_of_int runtime_s *. 1e-9));
        ("workloads.blob_load_s", secs blob_group);
      ]
    @ List.concat
        (List.mapi
           (fun g name ->
             if g = blob_group then []
             else
               [
                 (Printf.sprintf "runtime.%s.calls" name,
                  float_of_int calls.count.(g));
                 (Printf.sprintf "runtime.%s_s" name, secs g);
               ])
           (Array.to_list groups))
  in
  (Harness.observe outcome report, report, layer)

(* -- primitive costs -------------------------------------------------------

   Host cost of the three operations on the hottest simulator paths,
   estimated by Bechamel's OLS regression of time on iterations, as
   bench/bech.ml does. *)

let primitives ~quick =
  let open Bechamel in
  let memstore =
    let store = Memstore.create () in
    let i = ref 0 in
    Test.make ~name:"memsim.memstore_rw_ns"
      (Staged.stage (fun () ->
           i := (!i + 8) land 0xFFFFF;
           Memstore.store store ~addr:!i ~size:8 42;
           ignore (Memstore.load store ~addr:!i ~size:8)))
  in
  let clock_count =
    let clock = Clock.create () in
    Test.make ~name:"memsim.clock_count_ns"
      (Staged.stage (fun () -> Clock.count clock "tfm.fast_guards" 1))
  in
  let fast_guard =
    let rt =
      Trackfm.Runtime.create Cost_model.default (Clock.create ())
        (Memstore.create ()) ~object_size:4096
        ~local_budget:(Tfm_util.Units.mib 64)
    in
    let p = Trackfm.Runtime.tfm_malloc rt (Tfm_util.Units.mib 1) in
    Trackfm.Runtime.guard rt ~ptr:p ~size:8 ~write:false;
    Test.make ~name:"runtime.fast_guard_ns"
      (Staged.stage (fun () ->
           Trackfm.Runtime.guard rt ~ptr:p ~size:8 ~write:false))
  in
  let tests =
    Test.make_grouped ~name:"" ~fmt:"%s%s" [ memstore; clock_count; fast_guard ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let cfg =
    Benchmark.cfg ~limit:(if quick then 50 else 2000)
      ~quota:(Time.second (if quick then 0.02 else 0.5))
      ()
  in
  let clock = Toolkit.Instance.monotonic_clock in
  let results = Analyze.all ols clock (Benchmark.all cfg [ clock ] tests) in
  List.map
    (fun name ->
      match Analyze.OLS.estimates (Hashtbl.find results name) with
      | Some [ ns ] -> (name, ns)
      | _ -> failwith ("no Bechamel estimate for " ^ name))
    (Test.names tests)
