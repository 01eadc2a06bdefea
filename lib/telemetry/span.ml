(* Causal request tracing: exclusive-time attribution per operation.

   A span is opened per workload operation (the [!op_begin]/[!op_end]
   intrinsics) and every simulated cycle inside it is charged to exactly
   one category. The runtimes bracket their work in category frames
   ({!enter}/{!exit}); a frame's exclusive time is its window minus the
   windows of the frames nested inside it, so nothing is counted twice
   no matter how deep the nesting (a guard slow path that evicts, whose
   writeback stalls on a retry ladder, ...). Whatever no frame claims is
   compute, by subtraction — which makes the decomposition sum to the
   span's wall-clock cycles by construction. {!violations} counts every
   way the books could still fail to balance (unbalanced frames,
   over-attribution from a buggy instrumentation site), so tests and
   reports can assert the invariant instead of trusting it.

   The tracker also keeps two bounded rings — recently closed spans and
   notable events — which the flight recorder serializes when a fault
   fires. Everything is driven by an injected [now : unit -> int]
   timeline, so the same code runs off the memsim clock in production
   and off a scheduler's virtual time in tests. *)

type category =
  | Compute
  | Guard_fast
  | Guard_slow
  | Queueing
  | Retry
  | Failover
  | Evict_stall

let ncats = 7

let cat_index = function
  | Compute -> 0
  | Guard_fast -> 1
  | Guard_slow -> 2
  | Queueing -> 3
  | Retry -> 4
  | Failover -> 5
  | Evict_stall -> 6

let cat_name = function
  | Compute -> "compute"
  | Guard_fast -> "guard_fast"
  | Guard_slow -> "guard_slow"
  | Queueing -> "queueing"
  | Retry -> "retry"
  | Failover -> "failover"
  | Evict_stall -> "evict_stall"

let categories =
  [ Compute; Guard_fast; Guard_slow; Queueing; Retry; Failover; Evict_stall ]

let cat_names = List.map cat_name categories

type frame = { mutable fcat : int; fentered : int; mutable fchild : int }

type open_span = { sid : int; scls : int; sopened : int; scats : int array }

(* One logical thread of execution: the span it is inside (if any) plus
   the stack of category frames currently open on it. Swapped wholesale
   at a scheduler context switch. *)
type context = { mutable span : open_span option; mutable frames : frame list }

type record = {
  id : int;
  cls : int;
  opened : int;
  wall : int;
  cats : int array;
}

type class_stat = {
  mutable ops : int;
  wall_hist : Histogram.t;
  cat_totals : int array;
  mutable slowest : record option;
}

type event = { ets : int; ename : string; edetail : string }

type t = {
  now : unit -> int;
  class_names : (int * string) list;
  stats : (int, class_stat) Hashtbl.t;
  mutable ctx : context;
  suspended : (int, context) Hashtbl.t;
  mutable next_token : int;
  mutable next_id : int;
  ring : record option array;
  mutable ring_n : int; (* total spans ever pushed *)
  evring : event option array;
  mutable ev_n : int; (* total events ever pushed *)
  background : int array; (* attribution landing outside any span *)
  mutable violations : int;
  mutable violation_note : string;
}

let default_ring = 256

let fresh_context () = { span = None; frames = [] }

let create ?(ring = default_ring) ?(classes = []) ~now () =
  {
    now;
    class_names = classes;
    stats = Hashtbl.create 8;
    ctx = fresh_context ();
    suspended = Hashtbl.create 8;
    next_token = 0;
    next_id = 0;
    ring = Array.make (max 1 ring) None;
    ring_n = 0;
    evring = Array.make (max 1 ring) None;
    ev_n = 0;
    background = Array.make ncats 0;
    violations = 0;
    violation_note = "";
  }

let class_name t cls =
  match List.assoc_opt cls t.class_names with
  | Some n -> n
  | None -> Printf.sprintf "op%d" cls

let violation t note =
  t.violations <- t.violations + 1;
  if t.violation_note = "" then t.violation_note <- note

let violations t = t.violations
let violation_note t = t.violation_note

(* -- frames --------------------------------------------------------------- *)

let attribute t cat cycles =
  if cycles > 0 then begin
    let i = cat_index cat in
    match t.ctx.span with
    | Some s -> s.scats.(i) <- s.scats.(i) + cycles
    | None -> t.background.(i) <- t.background.(i) + cycles
  end

let enter t cat =
  t.ctx.frames <-
    { fcat = cat_index cat; fentered = t.now (); fchild = 0 } :: t.ctx.frames

let reclass t cat =
  match t.ctx.frames with
  | fr :: _ -> fr.fcat <- cat_index cat
  | [] -> violation t "reclass with no open frame"

let exit t =
  match t.ctx.frames with
  | [] -> violation t "frame exit with no open frame"
  | fr :: rest ->
      let window = t.now () - fr.fentered in
      let exclusive = window - fr.fchild in
      if exclusive < 0 then violation t "frame children exceed frame window"
      else if exclusive > 0 then begin
        let i = fr.fcat in
        match t.ctx.span with
        | Some s -> s.scats.(i) <- s.scats.(i) + exclusive
        | None -> t.background.(i) <- t.background.(i) + exclusive
      end;
      (match rest with
      | parent :: _ -> parent.fchild <- parent.fchild + window
      | [] -> ());
      t.ctx.frames <- rest

(* -- scheduler context switching ----------------------------------------- *)

let save t =
  let token = t.next_token in
  t.next_token <- token + 1;
  Hashtbl.replace t.suspended token t.ctx;
  t.ctx <- fresh_context ();
  token

let restore t token ~queued =
  (match Hashtbl.find_opt t.suspended token with
  | Some ctx ->
      Hashtbl.remove t.suspended token;
      t.ctx <- ctx
  | None -> violation t "restore of unknown context token");
  if queued > 0 then begin
    attribute t Queueing queued;
    (* The wait happened while the innermost frame was open; fold it
       into the frame's child time so its exclusive share excludes it. *)
    match t.ctx.frames with
    | fr :: _ -> fr.fchild <- fr.fchild + queued
    | [] -> ()
  end

(* -- span lifecycle ------------------------------------------------------- *)

let push_record t r =
  t.ring.(t.ring_n mod Array.length t.ring) <- Some r;
  t.ring_n <- t.ring_n + 1

let class_stat t cls =
  match Hashtbl.find_opt t.stats cls with
  | Some s -> s
  | None ->
      let s =
        {
          ops = 0;
          wall_hist = Histogram.create ();
          cat_totals = Array.make ncats 0;
          slowest = None;
        }
      in
      Hashtbl.replace t.stats cls s;
      s

let close_current t =
  match t.ctx.span with
  | None -> violation t "op_end with no open span"
  | Some s ->
      if t.ctx.frames <> [] then violation t "span closed with open frames";
      let wall = t.now () - s.sopened in
      let attributed = Array.fold_left ( + ) 0 s.scats in
      let compute = wall - attributed in
      if compute < 0 then violation t "attributed cycles exceed wall clock";
      s.scats.(cat_index Compute) <- compute;
      let r =
        { id = s.sid; cls = s.scls; opened = s.sopened; wall; cats = s.scats }
      in
      let st = class_stat t s.scls in
      st.ops <- st.ops + 1;
      Histogram.record st.wall_hist (max 0 wall);
      Array.iteri (fun i c -> st.cat_totals.(i) <- st.cat_totals.(i) + c) r.cats;
      (match st.slowest with
      | Some prev when prev.wall >= wall -> ()
      | _ -> st.slowest <- Some r);
      push_record t r;
      t.ctx.span <- None

let op_begin t ~cls =
  (* A begin inside an open span implicitly ends it: workload loops mark
     only boundaries, and the close must happen at the same instant the
     next operation starts. *)
  if t.ctx.span <> None then close_current t;
  let sid = t.next_id in
  t.next_id <- sid + 1;
  t.ctx.span <-
    Some { sid; scls = cls; sopened = t.now (); scats = Array.make ncats 0 }

let op_end t = close_current t

(* -- events --------------------------------------------------------------- *)

let note t ~name ~detail =
  t.evring.(t.ev_n mod Array.length t.evring) <-
    Some { ets = t.now (); ename = name; edetail = detail };
  t.ev_n <- t.ev_n + 1

let ring_to_list arr total =
  let cap = Array.length arr in
  let n = min total cap in
  let first = total - n in
  List.init n (fun i ->
      match arr.((first + i) mod cap) with
      | Some x -> x
      | None -> assert false)

let recent t = ring_to_list t.ring t.ring_n
let events t = ring_to_list t.evring t.ev_n
let spans_closed t = t.ring_n

(* -- aggregates ----------------------------------------------------------- *)

let classes t =
  Hashtbl.fold (fun cls st acc -> (cls, st) :: acc) t.stats []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let background t = Array.copy t.background

(* -- JSON ----------------------------------------------------------------- *)

let cats_json cats =
  Json.Obj
    (List.map (fun c -> (cat_name c, Json.Int cats.(cat_index c))) categories)

let record_json r =
  Json.Obj
    [
      ("id", Json.Int r.id);
      ("class", Json.Int r.cls);
      ("opened", Json.Int r.opened);
      ("wall", Json.Int r.wall);
      ("cycles", cats_json r.cats);
    ]

let wall_json h =
  let q p =
    match Histogram.quantile_opt h p with Some v -> Json.Int v | None -> Json.Null
  in
  Json.Obj
    [
      ("total", Json.Int (Histogram.total h));
      ("mean", Json.Float (Histogram.mean h));
      ("min", Json.Int (Histogram.min_value h));
      ("p50", q 0.5);
      ("p90", q 0.9);
      ("p99", q 0.99);
      ("p999", q 0.999);
      ("max", Json.Int (Histogram.max_value h));
    ]

let class_json t (cls, st) =
  Json.Obj
    [
      ("class", Json.Int cls);
      ("name", Json.String (class_name t cls));
      ("ops", Json.Int st.ops);
      ("wall", wall_json st.wall_hist);
      ("cycles", cats_json st.cat_totals);
      ( "slowest",
        match st.slowest with None -> Json.Null | Some r -> record_json r );
    ]

let classes_json t = Json.List (List.map (class_json t) (classes t))

let invariant_json t =
  Json.Obj
    [
      ("violations", Json.Int t.violations);
      ("note", Json.String t.violation_note);
    ]

let flight_json t ~reason ~meta =
  Json.Obj
    (meta
    @ [
        ("kind", Json.String "trackfm-flight-recorder");
        ("version", Json.Int 1);
        ("reason", Json.String reason);
        ("at", Json.Int (t.now ()));
        ("invariant", invariant_json t);
        ("spans_total", Json.Int t.ring_n);
        ("events_total", Json.Int t.ev_n);
        ("spans", Json.List (List.map record_json (recent t)));
        ( "events",
          Json.List
            (List.map
               (fun e ->
                 Json.Obj
                   [
                     ("ts", Json.Int e.ets);
                     ("name", Json.String e.ename);
                     ("detail", Json.String e.edetail);
                   ])
               (events t)) );
      ])
