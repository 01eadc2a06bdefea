(* Shared plumbing for the experiment harness: system runners, sweep
   helpers, and uniform reporting. *)

let quick = ref false

(* The shared run flags every run the harness performs uses:
   - [engine] (--engine): results are engine-independent (the
     [--engine compiled] runs of ci/cells.ml prove it), so this only
     moves wall-clock time — compiled makes full-size sweeps practical;
   - [fabric] (--faults/--fault-seed/--replicas/--ack): fault injection
     and the replicated tier for every far-memory run. Each run builds a
     fresh injector, so the fault schedule and the metrics are identical
     across runs for a fixed seed; the defaults keep the single-server
     code path bit for bit. *)
type setup = { engine : Engine.t; fabric : Run_spec.fabric }

let setup = ref { engine = Engine.Interp; fabric = Run_spec.default_fabric }
let active_faults () = Run_spec.injector !setup.fabric

(* Scale factor applied to workload sizes: full size by default, quartered
   with --quick. *)
let scaled n = if !quick then max 1 (n / 4) else n

let pct_sweep = [ 10; 20; 30; 40; 50; 60; 75; 90; 100 ]
let short_sweep = [ 10; 25; 50; 75; 100 ]

(* Budgets are page-rounded with two pages of slack so that a nominal
   100% budget really holds the working set (allocation granularity would
   otherwise leave it one page short and turn every scan into LRU
   thrash). *)
let budget_of ws pct =
  max (16 * 4096) ((((ws * pct / 100) + 4095) / 4096 * 4096) + (2 * 4096))

let cycles_to_seconds c = float_of_int c /. 2.4e9

let speedup base x = float_of_int base /. float_of_int x

let print_expectation ~paper ~ours =
  Printf.printf "paper: %s\nours:  %s\n\n" paper ours

(* The default TrackFM options on the harness's fabric. *)
let tfm_opts ~budget =
  let f = !setup.fabric in
  {
    (Driver.tfm_defaults ~local_budget:budget) with
    Driver.faults = Run_spec.injector f;
    replicas = f.replicas;
    ack = f.ack;
  }

(* Run a workload under TrackFM with given options; returns outcome. *)
let tfm ?blobs ?(object_size = 4096) ?(chunk_mode = `Gated) ?(prefetch = true)
    ?(use_state_table = true) ?(profile_gate = true) ?(elide = true)
    ?(summaries = true) ?(shapes = true) ?(route = `Off) ?(size_classes = [])
    ?faults ~budget build =
  let faults =
    match faults with Some f -> f | None -> active_faults ()
  in
  let opts =
    {
      (tfm_opts ~budget) with
      Driver.object_size;
      chunk_mode;
      prefetch;
      use_state_table;
      profile_gate;
      elide_guards = elide;
      use_summaries = summaries;
      use_shapes = shapes;
      route;
      size_classes;
      faults;
    }
  in
  fst (Driver.run_trackfm ~engine:!setup.engine ?blobs build opts)

let tfm_with_report ?blobs ?(object_size = 4096) ?(chunk_mode = `Gated)
    ?(profile_gate = true) ?(elide = true) ?(summaries = true)
    ?(shapes = true) ?(route = `Off) ~budget build =
  let opts =
    {
      (tfm_opts ~budget) with
      Driver.object_size;
      chunk_mode;
      profile_gate;
      elide_guards = elide;
      use_summaries = summaries;
      use_shapes = shapes;
      route;
    }
  in
  Driver.run_trackfm ~engine:!setup.engine ?blobs build opts

let fastswap ?blobs ?faults ~budget build =
  let faults =
    match faults with Some f -> f | None -> active_faults ()
  in
  let { Run_spec.replicas; ack; _ } = !setup.fabric in
  Driver.run_fastswap ~engine:!setup.engine ?blobs ~faults ~replicas ~ack
    ~local_budget:budget build

let local ?blobs build = Driver.run_local ~engine:!setup.engine ?blobs build

let gb bytes = float_of_int bytes /. 1e9
let mops ops cycles = float_of_int ops /. (cycles_to_seconds cycles *. 1e6)
let kops ops cycles = float_of_int ops /. (cycles_to_seconds cycles *. 1e3)

(* -- JSON metrics export -------------------------------------------------

   With --metrics-dir DIR on the harness command line, every table an
   experiment prints through [report_table] is also collected and written
   as DIR/<experiment>.json when the experiment finishes, so figures can
   be re-plotted without scraping stdout. *)

let metrics_dir : string option ref = ref None
let pending_tables : Tfm_util.Table.t list ref = ref []

let report_table t =
  Tfm_util.Table.print t;
  if !metrics_dir <> None then pending_tables := t :: !pending_tables

let cell_json cell =
  let open Telemetry.Json in
  match int_of_string_opt cell with
  | Some n -> Int n
  | None -> (
      match float_of_string_opt cell with
      | Some f -> Float f
      | None -> String cell)

let table_json t =
  let open Telemetry.Json in
  Obj
    [
      ("title", String (Tfm_util.Table.title t));
      ( "columns",
        List (List.map (fun c -> String c) (Tfm_util.Table.columns t)) );
      ( "rows",
        List
          (List.map
             (fun row -> List (List.map cell_json row))
             (Tfm_util.Table.rows t)) );
    ]

(* -- span attribution export ---------------------------------------------

   With --attribution-dir DIR, span-traced experiment runs also write one
   attribution JSON per (workload, system) pair as
   DIR/<experiment>-<label>.json — the same document `run --attribution`
   emits, so successive harness invocations produce comparable
   latency-breakdown trajectories alongside the BENCH_*.json tables. *)

let attribution_dir : string option ref = ref None

(* TrackFM / Fastswap runs with the causal span tracker on; the returned
   sink carries the per-class attribution for reporting/export. *)
let tfm_spans ?blobs ?(object_size = 4096) ~op_classes ~budget build =
  let opts = { (tfm_opts ~budget) with Driver.object_size } in
  let sink, telemetry =
    Telemetry.Sink.capture ~trace:false ~series_interval:250_000 ~spans:true
      ~op_classes ()
  in
  let o, _ =
    Driver.run_trackfm ~engine:!setup.engine ?blobs ~telemetry build opts
  in
  Telemetry.Sink.final_sample !sink;
  (o, !sink)

let fastswap_spans ?blobs ~op_classes ~budget build =
  let sink, telemetry =
    Telemetry.Sink.capture ~trace:false ~series_interval:250_000 ~spans:true
      ~op_classes ()
  in
  let { Run_spec.replicas; ack; _ } = !setup.fabric in
  let o =
    Driver.run_fastswap ~engine:!setup.engine ?blobs ~faults:(active_faults ())
      ~replicas ~ack ~telemetry ~local_budget:budget build
  in
  Telemetry.Sink.final_sample !sink;
  (o, !sink)

let write_attribution ~experiment ~label sink ~meta =
  match !attribution_dir with
  | None -> ()
  | Some dir -> (
      match Telemetry.Sink.attribution_json sink ~meta with
      | None -> ()
      | Some j ->
          let file =
            Filename.concat dir (Printf.sprintf "%s-%s.json" experiment label)
          in
          Telemetry.Json.to_file file j;
          Printf.printf "[attribution -> %s]\n" file)

let flush_metrics ~experiment ~elapsed_s =
  let tables = List.rev !pending_tables in
  pending_tables := [];
  match !metrics_dir with
  | None -> ()
  | Some dir ->
      if tables <> [] then begin
        let open Telemetry.Json in
        let j =
          Obj
            [
              ("experiment", String experiment);
              ("elapsed_s", Float elapsed_s);
              ("quick", Bool !quick);
              ("tables", List (List.map table_json tables));
            ]
        in
        to_file (Filename.concat dir (experiment ^ ".json")) j
      end
