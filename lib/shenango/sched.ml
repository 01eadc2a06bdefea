type _ Effect.t +=
  | Work : int -> unit Effect.t
  | Block : int -> unit Effect.t
  | Yield : unit Effect.t
  | Now : int Effect.t
  | Park : unit Effect.t

let work c = Effect.perform (Work c)
let block l = Effect.perform (Block l)
let yield () = Effect.perform Yield
let now () = Effect.perform Now
let park () = Effect.perform Park

(* Block if we are running inside a scheduled task; outside any handler
   (plain single-threaded simulation) report false and do nothing. This
   is what lets the far-memory transport degrade to block-with-yield
   when a scheduler is present without depending on one. *)
let try_block l = try block l; true with Effect.Unhandled _ -> false

(* A runnable continuation becomes ready at [wake_at]; the single core
   executes at [core_time], advancing over Work and jumping forward when
   every task is still blocked. [ctx] is the switch-hook token saved
   when the task left the core. *)
type runnable = {
  wake_at : int;
  seq : int;
  k : (unit, unit) Effect.Deep.continuation option;
  ctx : int option;
}

(* Context-switch hooks (telemetry glue, e.g. span save/restore): [save]
   captures whatever per-task state the observer keeps and returns a
   token; [restore] reinstates it just before the task resumes, with
   [queued] the cycles the task sat runnable waiting for the core. *)
type switch_hooks = {
  save : unit -> int;
  restore : token:int -> queued:int -> unit;
}

(* A parked task left the run queue entirely: it has no wake time and
   only an [unpark] makes it runnable again (Shenango's thread park). *)
type parked = {
  pk : (unit, unit) Effect.Deep.continuation;
  pctx : int option;
}

type t = {
  mutable tasks : (unit -> unit) list;
  mutable queue : runnable list; (* sorted by (wake_at, seq) *)
  mutable parked : parked list; (* FIFO: oldest parker wakes first *)
  mutable core_time : int;
  mutable next_seq : int;
  mutable hooks : switch_hooks option;
}

let create () =
  {
    tasks = [];
    queue = [];
    parked = [];
    core_time = 0;
    next_seq = 0;
    hooks = None;
  }

let set_switch_hooks t h = t.hooks <- h
let time t = t.core_time

let spawn t f = t.tasks <- t.tasks @ [ f ]

let parked_count t = List.length t.parked

let runnable_count t =
  List.length (List.filter (fun r -> r.wake_at <= t.core_time) t.queue)

let push t r =
  (* insertion keeps (wake_at, seq) order: FIFO among equal wake times *)
  let rec ins = function
    | [] -> [ r ]
    | x :: rest ->
        if (x.wake_at, x.seq) <= (r.wake_at, r.seq) then x :: ins rest
        else r :: x :: rest
  in
  t.queue <- ins t.queue

(* Wake up to [n] parked tasks (oldest first): each becomes runnable at
   the current core time, behind already-runnable tasks with earlier
   sequence numbers. Returns how many were actually woken; callable from
   inside a task (the dispatcher wakes a connection handler per admitted
   request) or outside the scheduler entirely. *)
let unpark t n =
  let rec go woken =
    if woken >= n then woken
    else
      match t.parked with
      | [] -> woken
      | p :: rest ->
          t.parked <- rest;
          let seq = t.next_seq in
          t.next_seq <- seq + 1;
          push t
            { wake_at = t.core_time; seq; k = Some p.pk; ctx = p.pctx };
          go (woken + 1)
  in
  go 0

let unpark_all t = unpark t max_int

let run t =
  let open Effect.Deep in
  let enqueue_ready wake_at k =
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    (* The task is leaving the core: detach its observer context so the
       next task to run does not inherit its open span/frames. *)
    let ctx = Option.map (fun h -> h.save ()) t.hooks in
    push t { wake_at; seq; k; ctx }
  in
  (* Start a task under the scheduler's handler. *)
  let start f =
    match_with f ()
      {
        retc = (fun () -> ());
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Work c ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    t.core_time <- t.core_time + c;
                    continue k ())
            | Block l ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    enqueue_ready (t.core_time + l) (Some k))
            | Yield ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    enqueue_ready t.core_time (Some k))
            | Park ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    let ctx = Option.map (fun h -> h.save ()) t.hooks in
                    t.parked <- t.parked @ [ { pk = k; pctx = ctx } ])
            | Now ->
                Some (fun (k : (a, unit) continuation) -> continue k t.core_time)
            | _ -> None);
      }
  in
  (* Seed: all spawned tasks are ready at time 0, in spawn order. *)
  let pending = ref t.tasks in
  t.tasks <- [];
  List.iter (fun _ -> ()) !pending;
  let rec schedule () =
    match (!pending, t.queue) with
    | f :: rest, _ ->
        pending := rest;
        start f;
        schedule ()
    | [], [] -> ()
    | [], r :: rest ->
        t.queue <- rest;
        if r.wake_at > t.core_time then t.core_time <- r.wake_at;
        (match (t.hooks, r.ctx) with
        | Some h, Some token ->
            (* [queued]: ready at [wake_at] but only scheduled now. *)
            h.restore ~token ~queued:(t.core_time - r.wake_at)
        | _ -> ());
        (match r.k with
        | Some k -> continue k ()
        | None -> ());
        schedule ()
  in
  schedule ();
  (match t.parked with
  | [] -> ()
  | ps ->
      failwith
        (Printf.sprintf
           "Sched.run: deadlock — %d task(s) still parked with no one left \
            to unpark them"
           (List.length ps)));
  t.core_time
