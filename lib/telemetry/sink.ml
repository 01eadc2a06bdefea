type path = [ `Fast | `Slow | `Locality | `Custody | `Paged ]

let unknown_site = { Site.func = "<unknown>"; instr = -1 }

(* Per-epoch per-site activity deltas (the hybrid selector's data feed);
   slots follow [epoch_fields]. *)
type epoch = { eat : int; erows : (Site.key * int array) list }

let epoch_fields =
  [|
    "fast"; "slow"; "locality"; "custody"; "paged"; "writes"; "bytes_in";
    "bytes_out"; "guard_cycles";
  |]

type recorder = {
  clock : Memsim.Clock.t;
  sites : Site.t;
  guard_cycles : Histogram.t;
  fetch_bytes : Histogram.t;
  retry_backoff : Histogram.t;
  series : Series.t option;
  trace : Trace.t option;
  mutable spans : Span.t option;
  epoch_prev : (Site.key, int array) Hashtbl.t;
  mutable epochs : epoch list; (* newest first *)
  mutable flight : (string * (string * Json.t) list) option;
  mutable flight_dumped : string option;
  mutable cur : Site.key;
  mutable ts_base : int;
  mutable last_sample_at : int;
}

type t = Nop | Rec of recorder

let nop = Nop
let is_active = function Nop -> false | Rec _ -> true
let recorder = function Nop -> None | Rec r -> Some r

let now r = r.ts_base + Memsim.Clock.cycles r.clock

let counter_value counters name =
  match List.assoc_opt name counters with Some v -> v | None -> 0

(* The counter tracks surfaced in the trace viewer; the CSV export keeps
   every counter regardless. *)
let trace_counter_groups =
  [
    ("tfm.guards", [ "tfm.fast_guards"; "tfm.slow_guards"; "tfm.locality_guards" ]);
    ("net.bytes", [ "net.bytes_in"; "net.bytes_out" ]);
    ("memory", [ "net.fetches"; "aifm.evictions"; "aifm.writebacks" ]);
  ]

(* Close one site-profile epoch: the delta of every site's counters
   since the previous sample, sorted by site key so export order never
   depends on hash-table iteration. All-zero rows (and epochs) are
   dropped. *)
let epoch_snap (s : Site.stat) =
  [|
    s.Site.fast; s.Site.slow; s.Site.locality; s.Site.custody; s.Site.paged;
    s.Site.writes; s.Site.bytes_in; s.Site.bytes_out; s.Site.guard_cycles;
  |]

let epoch_sample r ~at =
  let rows =
    List.filter_map
      (fun (k, s) ->
        let cur = epoch_snap s in
        let d =
          match Hashtbl.find_opt r.epoch_prev k with
          | None -> cur
          | Some prev -> Array.mapi (fun i v -> v - prev.(i)) cur
        in
        Hashtbl.replace r.epoch_prev k cur;
        if Array.exists (fun x -> x <> 0) d then Some (k, d) else None)
      (Site.rows r.sites)
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  if rows <> [] then r.epochs <- { eat = at; erows = rows } :: r.epochs

(* Idempotent per simulated instant, so an extra [final_sample] (e.g.
   report printing and then file export) does not duplicate counter
   events in the trace. *)
let take_sample r =
  let at = now r in
  if at = r.last_sample_at then ()
  else begin
  r.last_sample_at <- at;
  let counters = Memsim.Clock.counters r.clock in
  (match r.series with
  | Some s -> Series.record s ~at counters
  | None -> ());
  if r.spans <> None then epoch_sample r ~at;
  match r.trace with
  | None -> ()
  | Some tr ->
      List.iter
        (fun (group, names) ->
          let values =
            List.filter_map
              (fun n ->
                match counter_value counters n with
                | 0 -> None
                | v -> Some (n, v))
              names
          in
          if values <> [] then Trace.counter tr ~name:group ~ts:at values)
        trace_counter_groups
  end

let recording ?(trace = true) ?(series_interval = 250_000) ?(spans = false)
    ?(op_classes = []) ?span_now clock =
  let r =
    {
      clock;
      sites = Site.create ();
      guard_cycles = Histogram.create ();
      fetch_bytes = Histogram.create ();
      retry_backoff = Histogram.create ();
      series =
        (if series_interval > 0 then Some (Series.create ~interval:series_interval)
         else None);
      trace = (if trace then Some (Trace.create ()) else None);
      spans = None;
      epoch_prev = Hashtbl.create 64;
      epochs = [];
      flight = None;
      flight_dumped = None;
      cur = unknown_site;
      ts_base = 0;
      last_sample_at = -1;
    }
  in
  if spans then begin
    let span_now =
      match span_now with Some f -> f | None -> fun () -> now r
    in
    r.spans <-
      Some (Span.create ~classes:op_classes ~now:span_now ())
  end;
  let wants_sampler =
    match (r.series, r.trace, r.spans) with
    | None, None, None -> false
    | _ -> true
  in
  if wants_sampler then
    Memsim.Clock.set_sampler clock
      ~interval:(if series_interval > 0 then series_interval else 250_000)
      (fun _ -> take_sample r);
  Rec r

let timestamp = function Nop -> 0 | Rec r -> now r

let final_sample = function Nop -> () | Rec r -> take_sample r

let set_site t ~func ~instr =
  match t with Nop -> () | Rec r -> r.cur <- { Site.func; instr }

let note_reset = function
  | Nop -> ()
  | Rec r ->
      r.ts_base <- r.ts_base + Memsim.Clock.cycles r.clock;
      (* The clock reset that follows wipes its counters, so the final
         counters cover only the measured region. Drop the aggregates
         too — the hotspot totals must keep matching the clock — while
         the trace and time-series keep the whole run. *)
      Site.clear r.sites;
      Hashtbl.reset r.epoch_prev;
      Histogram.clear r.guard_cycles;
      Histogram.clear r.fetch_bytes;
      Histogram.clear r.retry_backoff

(* -- spans ---------------------------------------------------------------- *)

let spans = function Nop -> None | Rec r -> r.spans

let with_spans t f =
  match t with
  | Nop -> ()
  | Rec { spans = None; _ } -> ()
  | Rec { spans = Some sp; _ } -> f sp

(* The span hooks run on every guard, so they match on the sink
   directly: a [with_spans] closure would capture its argument and
   allocate on each call, even on [Nop]. *)
let op_begin t ~cls =
  match t with Rec { spans = Some sp; _ } -> Span.op_begin sp ~cls | _ -> ()

let op_end = function Rec { spans = Some sp; _ } -> Span.op_end sp | _ -> ()

(* [@inline]: every guard enters and leaves a category, and with spans
   off that is one match on the sink. *)
let[@inline] cat_enter t cat =
  match t with Rec { spans = Some sp; _ } -> Span.enter sp cat | _ -> ()

let[@inline] cat_exit = function
  | Rec { spans = Some sp; _ } -> Span.exit sp
  | _ -> ()

let[@inline] cat_reclass t cat =
  match t with Rec { spans = Some sp; _ } -> Span.reclass sp cat | _ -> ()

(* -- flight recorder ------------------------------------------------------ *)

let set_flight_recorder t ~path ~meta =
  match t with Nop -> () | Rec r -> r.flight <- Some (path, meta)

let flight_dumped = function Nop -> None | Rec r -> r.flight_dumped

let capture ?trace ?series_interval ?spans ?op_classes ?flight () =
  let sink = ref Nop in
  let factory clock =
    let s = recording ?trace ?series_interval ?spans ?op_classes clock in
    Option.iter (fun (path, meta) -> set_flight_recorder s ~path ~meta) flight;
    sink := s;
    s
  in
  (sink, factory)

(* Dump-once: the ring is serialized at the instant of the first
   trigger, so the file shows the system's state when things first went
   wrong, not at exit. Write failures warn instead of killing the run —
   the recorder must never take down what it is observing. *)
let flight_trigger t ~reason =
  match t with
  | Nop -> ()
  | Rec r -> (
      match (r.flight, r.spans, r.flight_dumped) with
      | Some (path, meta), Some sp, None -> (
          let json = Span.flight_json sp ~reason ~meta in
          try
            Json.to_file path json;
            r.flight_dumped <- Some path
          with Sys_error e ->
            Printf.eprintf "warning: flight recorder write failed: %s\n%!" e)
      | _ -> ())

(* Overload-control events from the serving tier. Mirrors the fault
   path: every shed/reject lands in the span event ring, and the first
   one fires the flight recorder — the dump shows what the system looked
   like the moment it first refused work, not at exit. *)
let shed_event t ~kind ~detail =
  let name = "serving." ^ kind in
  with_spans t (fun sp -> Span.note sp ~name ~detail);
  flight_trigger t ~reason:name

(* -- events -------------------------------------------------------------- *)

let guard_event t ~path ~write ~cycles ~bytes_in ~bytes_out =
  match t with
  | Nop -> ()
  | Rec r -> (
      let s = Site.stat r.sites r.cur in
      (match path with
      | `Fast -> s.Site.fast <- s.Site.fast + 1
      | `Slow ->
          s.Site.slow <- s.Site.slow + 1;
          Histogram.record r.guard_cycles cycles
      | `Locality ->
          s.Site.locality <- s.Site.locality + 1;
          Histogram.record r.guard_cycles cycles
      | `Custody -> s.Site.custody <- s.Site.custody + 1
      | `Paged ->
          s.Site.paged <- s.Site.paged + 1;
          Histogram.record r.guard_cycles cycles);
      if write then s.Site.writes <- s.Site.writes + 1;
      s.Site.bytes_in <- s.Site.bytes_in + bytes_in;
      s.Site.bytes_out <- s.Site.bytes_out + bytes_out;
      s.Site.guard_cycles <- s.Site.guard_cycles + cycles;
      match (path, r.trace) with
      | (`Slow | `Locality | `Paged), Some tr ->
          let name =
            match path with
            | `Slow -> "guard.slow"
            | `Paged -> "guard.paged"
            | _ -> "guard.locality"
          in
          let args =
            [
              ("site", Json.String (Site.key_to_string r.cur));
              ("write", Json.Bool write);
            ]
            @ (if bytes_in > 0 then [ ("bytes_in", Json.Int bytes_in) ] else [])
          in
          Trace.complete tr ~name ~cat:"guard" ~ts:(now r - cycles)
            ~dur:cycles ~args ()
      | _ -> ())

let fetch_event t ~bytes ~prefetched =
  match t with
  | Nop -> ()
  | Rec r -> (
      Histogram.record r.fetch_bytes bytes;
      match r.trace with
      | None -> ()
      | Some tr ->
          Trace.instant tr ~name:"fetch" ~cat:"net" ~ts:(now r)
            ~args:
              [
                ("bytes", Json.Int bytes);
                ("prefetched", Json.Bool prefetched);
                ("site", Json.String (Site.key_to_string r.cur));
              ]
            ())

let writeback_event t ~bytes =
  match t with
  | Nop -> ()
  | Rec r -> (
      match r.trace with
      | None -> ()
      | Some tr ->
          Trace.instant tr ~name:"writeback" ~cat:"net" ~ts:(now r)
            ~args:[ ("bytes", Json.Int bytes) ] ())

let evict_event t =
  match t with
  | Nop -> ()
  | Rec r -> (
      match r.trace with
      | None -> ()
      | Some tr -> Trace.instant tr ~name:"evict" ~cat:"aifm" ~ts:(now r) ())

let prefetch_event t ~from ~stride ~depth =
  match t with
  | Nop -> ()
  | Rec r -> (
      match r.trace with
      | None -> ()
      | Some tr ->
          Trace.instant tr ~name:"prefetch.issue" ~cat:"aifm" ~ts:(now r)
            ~args:
              [
                ("from", Json.Int from);
                ("stride", Json.Int stride);
                ("depth", Json.Int depth);
              ]
            ())

(* Fabric-fault events from the transport (Net installs this bridge via
   its [on_event] hook): retry backoffs feed a histogram, breaker
   open/close pairs become outage spans on the trace's fault track. *)
(* Fault events feed the flight recorder twice over: every one lands in
   the span event ring, and the first one that signals real trouble (a
   retry, an exhausted ladder, an opened breaker, data loss) triggers
   the dump. *)
let span_note_net t (e : Memsim.Net.event) =
  match spans t with
  | None -> ()
  | Some sp -> (
      let note name detail = Span.note sp ~name ~detail in
      match e with
      | Memsim.Net.Retry { attempt; backoff; reason } ->
          note "net.retry"
            (Printf.sprintf "attempt=%d backoff=%d reason=%s" attempt backoff
               (match reason with `Nack -> "nack" | `Timeout -> "timeout"));
          flight_trigger t ~reason:"net.retry"
      | Memsim.Net.Breaker_opened { at; probe_at } ->
          note "net.breaker_open"
            (Printf.sprintf "at=%d probe_at=%d" at probe_at);
          flight_trigger t ~reason:"net.breaker_open"
      | Memsim.Net.Breaker_closed { opened_at; at } ->
          note "net.breaker_close"
            (Printf.sprintf "opened_at=%d at=%d" opened_at at)
      | Memsim.Net.Fetch_failed { attempts } ->
          note "net.fetch_failed" (Printf.sprintf "attempts=%d" attempts);
          flight_trigger t ~reason:"net.fetch_failed"
      | Memsim.Net.Failover { key; primary; replica } ->
          note "net.failover"
            (Printf.sprintf "key=%d primary=%d replica=%d" key primary replica)
      | Memsim.Net.Corruption_detected { key; node } ->
          note "net.corruption" (Printf.sprintf "key=%d node=%d" key node);
          flight_trigger t ~reason:"net.corruption"
      | Memsim.Net.Repaired { key; node } ->
          note "net.repair" (Printf.sprintf "key=%d node=%d" key node)
      | Memsim.Net.Object_lost { key } ->
          note "net.object_lost" (Printf.sprintf "key=%d" key);
          flight_trigger t ~reason:"net.object_lost")

let net_event t (e : Memsim.Net.event) =
  span_note_net t e;
  match t with
  | Nop -> ()
  | Rec r -> (
      match e with
      | Memsim.Net.Retry { attempt; backoff; reason } -> (
          Histogram.record r.retry_backoff backoff;
          match r.trace with
          | None -> ()
          | Some tr ->
              Trace.instant tr ~name:"net.retry" ~cat:"fault" ~ts:(now r)
                ~args:
                  [
                    ("attempt", Json.Int attempt);
                    ("backoff", Json.Int backoff);
                    ( "reason",
                      Json.String
                        (match reason with
                        | `Nack -> "nack"
                        | `Timeout -> "timeout") );
                    ("site", Json.String (Site.key_to_string r.cur));
                  ]
                ())
      | Memsim.Net.Breaker_opened { at; probe_at } -> (
          match r.trace with
          | None -> ()
          | Some tr ->
              Trace.instant tr ~name:"net.breaker_open" ~cat:"fault"
                ~ts:(r.ts_base + at)
                ~args:[ ("probe_at", Json.Int (r.ts_base + probe_at)) ]
                ())
      | Memsim.Net.Breaker_closed { opened_at; at } -> (
          match r.trace with
          | None -> ()
          | Some tr ->
              Trace.complete tr ~name:"net.outage" ~cat:"fault"
                ~ts:(r.ts_base + opened_at)
                ~dur:(max 0 (at - opened_at))
                ())
      | Memsim.Net.Fetch_failed { attempts } -> (
          match r.trace with
          | None -> ()
          | Some tr ->
              Trace.instant tr ~name:"net.fetch_failed" ~cat:"fault"
                ~ts:(now r)
                ~args:[ ("attempts", Json.Int attempts) ]
                ())
      | Memsim.Net.Failover { key; primary; replica } -> (
          match r.trace with
          | None -> ()
          | Some tr ->
              Trace.instant tr ~name:"net.failover" ~cat:"cluster" ~ts:(now r)
                ~args:
                  [
                    ("key", Json.Int key);
                    ("primary", Json.Int primary);
                    ("replica", Json.Int replica);
                  ]
                ())
      | Memsim.Net.Corruption_detected { key; node } -> (
          match r.trace with
          | None -> ()
          | Some tr ->
              Trace.instant tr ~name:"net.corruption" ~cat:"cluster"
                ~ts:(now r)
                ~args:[ ("key", Json.Int key); ("node", Json.Int node) ]
                ())
      | Memsim.Net.Repaired { key; node } -> (
          match r.trace with
          | None -> ()
          | Some tr ->
              Trace.instant tr ~name:"net.repair" ~cat:"cluster" ~ts:(now r)
                ~args:[ ("key", Json.Int key); ("node", Json.Int node) ]
                ())
      | Memsim.Net.Object_lost { key } -> (
          match r.trace with
          | None -> ()
          | Some tr ->
              Trace.instant tr ~name:"net.object_lost" ~cat:"cluster"
                ~ts:(now r)
                ~args:[ ("key", Json.Int key) ]
                ()))

let attach_net t net =
  Memsim.Net.on_event net (fun e -> net_event t e);
  (* Fault-path and failover cost windows inside the transport become
     category frames on the open span; with spans disabled the closures
     hit the Nop arm and nothing happens. *)
  Memsim.Net.set_span_scope net
    ~enter:(fun kind ->
      cat_enter t
        (match kind with `Retry -> Span.Retry | `Failover -> Span.Failover))
    ~leave:(fun () -> cat_exit t)

(* Cluster events carry monotonic timestamps, which coincide with the
   trace timeline ([ts_base] accumulates exactly what [Clock.reset]
   folds away), so [at]/[until] can be used directly. *)
let span_note_cluster t (e : Memsim.Cluster.event) =
  match spans t with
  | None -> ()
  | Some sp -> (
      match e with
      | Memsim.Cluster.Node_crashed { node; at; until; lost } ->
          Span.note sp ~name:"cluster.node_crashed"
            ~detail:
              (Printf.sprintf "node=%d at=%d until=%d lost=%d" node at until
                 lost);
          flight_trigger t ~reason:"cluster.node_crashed"
      | Memsim.Cluster.Node_recovered { node; at; missing } ->
          Span.note sp ~name:"cluster.node_recovered"
            ~detail:(Printf.sprintf "node=%d at=%d missing=%d" node at missing))

let cluster_event t (e : Memsim.Cluster.event) =
  span_note_cluster t e;
  match t with
  | Nop -> ()
  | Rec r -> (
      match e with
      | Memsim.Cluster.Node_crashed { node; at; until; lost } -> (
          match r.trace with
          | None -> ()
          | Some tr ->
              Trace.complete tr ~name:"cluster.node_down" ~cat:"cluster"
                ~ts:at
                ~dur:(max 0 (until - at))
                ~args:[ ("node", Json.Int node); ("lost", Json.Int lost) ]
                ())
      | Memsim.Cluster.Node_recovered { node; at; missing } -> (
          match r.trace with
          | None -> ()
          | Some tr ->
              Trace.instant tr ~name:"cluster.node_recovered" ~cat:"cluster"
                ~ts:at
                ~args:[ ("node", Json.Int node); ("missing", Json.Int missing) ]
                ()))

let attach_cluster t cluster =
  Memsim.Cluster.set_on_event cluster (fun e -> cluster_event t e)

let span t ~name ?(cat = "interp") ~start () =
  match t with
  | Nop -> ()
  | Rec r -> (
      match r.trace with
      | None -> ()
      | Some tr ->
          let stop = now r in
          Trace.complete tr ~name ~cat ~ts:start ~dur:(stop - start) ())

let phase_mark t name =
  with_spans t (fun sp -> Span.note sp ~name ~detail:"");
  match t with
  | Nop -> ()
  | Rec r -> (
      match r.trace with
      | None -> ()
      | Some tr -> Trace.instant tr ~name ~cat:"phase" ~ts:(now r) ())

(* -- attribution export --------------------------------------------------- *)

let epochs_json r =
  Json.List
    (List.rev_map
       (fun e ->
         Json.Obj
           [
             ("at", Json.Int e.eat);
             ( "sites",
               Json.List
                 (List.map
                    (fun (k, d) ->
                      Json.Obj
                        (("site", Json.String (Site.key_to_string k))
                        :: Array.to_list
                             (Array.mapi
                                (fun i name -> (name, Json.Int d.(i)))
                                epoch_fields)))
                    e.erows) );
           ])
       r.epochs)

let epoch_count = function Nop -> 0 | Rec r -> List.length r.epochs

(* The machine-readable summary [run --attribution] writes and
   [report critical-path/slo --from] read back: per-class wall-clock
   percentiles and exact category decomposition, the invariant verdict,
   out-of-span background attribution, and the per-site epoch feed. *)
let attribution_json t ~meta =
  match t with
  | Nop -> None
  | Rec ({ spans = Some sp; _ } as r) ->
      Some
        (Json.Obj
           ([
              ("kind", Json.String "trackfm-attribution");
              ("version", Json.Int 1);
            ]
           @ meta
           @ [
               ("invariant", Span.invariant_json sp);
               ( "categories",
                 Json.List
                   (List.map (fun n -> Json.String n) Span.cat_names) );
               ("classes", Span.classes_json sp);
               ("background", Span.cats_json (Span.background sp));
               ("epochs", epochs_json r);
             ]))
  | Rec _ -> None
