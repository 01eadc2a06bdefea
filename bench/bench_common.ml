(* Shared plumbing for the experiment harness: system runners, sweep
   helpers, and uniform reporting.

   The runner rule: [tfm], [fastswap] and [local] are the harness's one
   runner per system, and the only callers of [Driver.run_trackfm],
   [Driver.run_fastswap] and [Driver.run_local] in bench/ outside
   bench/perf/. Each runs on the harness's engine and fabric ([!setup])
   unless its call site overrides them. These call sites do, and say so
   with [~engine] or [~fabric]:
   - engine_speedup times the same local run under both engines;
   - hybrid_routing and shape_routing check that both engines agree
     with the host oracle, on the fault-free fabric;
   - faults_goodput sweeps its fault presets, and durability runs its
     crash schedule at its own tier sizes.
   Overriding the cost model (related_dilos's DiLOS column, hw_kona's
   Kona column) keeps the engine and the fabric. *)

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

(* The TrackFM options an experiment starts from: the driver's defaults
   at [budget]. The runner sets their fabric fields. *)
let tfm_opts ~budget = Driver.tfm_defaults ~local_budget:budget

let tfm ?(engine = !setup.engine) ?(fabric = !setup.fabric) ?cost ?blobs
    ?telemetry (opts : Driver.tfm_opts) build =
  let opts =
    {
      opts with
      faults = Run_spec.injector fabric;
      replicas = fabric.replicas;
      ack = fabric.ack;
    }
  in
  Driver.run_trackfm ~engine ?cost ?blobs ?telemetry build opts

let fastswap ?(fabric = !setup.fabric) ?cost ?readahead ?blobs ?telemetry
    ~budget build =
  Driver.run_fastswap ~engine:!setup.engine ?cost ?readahead
    ~faults:(Run_spec.injector fabric) ~replicas:fabric.replicas
    ~ack:fabric.ack ?blobs ?telemetry ~local_budget:budget build

let local ?(engine = !setup.engine) ?blobs build =
  Driver.run_local ~engine ?blobs build

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
