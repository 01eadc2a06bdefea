(* The counter registry is process-wide: a name gets one slot the first
   time anyone asks for it, and every clock indexes its values by that
   slot. Hot paths resolve their names once, at module initialisation,
   and then pay an array access per event instead of a string hash. *)
type counter = int

let slots : (string, counter) Hashtbl.t = Hashtbl.create 64

let counter name =
  match Hashtbl.find_opt slots name with
  | Some c -> c
  | None ->
      let c = Hashtbl.length slots in
      Hashtbl.add slots name c;
      c

(* A slot holding [untouched] has not been counted since the last
   [reset]; [counters] lists only the others, so a counter that was only
   ever added 0 still shows up. *)
let untouched = min_int

type t = {
  mutable cycles : int;
  (* Cycles folded in from [reset]s, so [monotonic] never jumps backward
     across the !bench_begin boundary (crash schedules and replication
     timestamps must live on one continuous timeline). *)
  mutable folded : int;
  mutable values : int array; (* indexed by [counter]; grows on demand *)
  (* Sampling hook: [sampler] fires every [sample_interval] cycles (from
     the moment it is installed). [next_sample] is [max_int] when no
     sampler is installed, so the common-case cost in [tick] is a single
     integer compare. *)
  mutable sample_interval : int;
  mutable next_sample : int;
  mutable sampler : (t -> unit) option;
}

let create () =
  {
    cycles = 0;
    folded = 0;
    values = Array.make (max 16 (Hashtbl.length slots)) untouched;
    sample_interval = 0;
    next_sample = max_int;
    sampler = None;
  }

let rec fire t =
  match t.sampler with
  | None -> t.next_sample <- max_int
  | Some f ->
      f t;
      t.next_sample <- t.next_sample + t.sample_interval;
      if t.cycles >= t.next_sample then fire t

(* [@inline] so the add-and-compare lands inside the interpreter and
   compiled-engine hot loops instead of costing a call per charge. *)
let[@inline] tick t n =
  assert (n >= 0);
  t.cycles <- t.cycles + n;
  if t.cycles >= t.next_sample then fire t

let cycles t = t.cycles
let monotonic t = t.folded + t.cycles

(* A counter registered after [t] was created lies past its array. *)
let grow t c =
  let n = Array.length t.values in
  let values = Array.make (max (c + 1) (2 * n)) untouched in
  Array.blit t.values 0 values 0 n;
  t.values <- values

let[@inline] add t c n =
  if c >= Array.length t.values then grow t c;
  let v = Array.unsafe_get t.values c in
  Array.unsafe_set t.values c (if v = untouched then n else v + n)

let value t c =
  if c >= Array.length t.values then 0
  else
    let v = Array.unsafe_get t.values c in
    if v = untouched then 0 else v

let count t name n = add t (counter name) n

let get t name =
  match Hashtbl.find_opt slots name with Some c -> value t c | None -> 0

let counters t =
  let n = Array.length t.values in
  Hashtbl.fold
    (fun name c acc ->
      if c < n && t.values.(c) <> untouched then (name, t.values.(c)) :: acc
      else acc)
    slots []
  |> List.sort compare

let set_sampler t ~interval f =
  if interval <= 0 then invalid_arg "Clock.set_sampler: interval must be > 0";
  t.sample_interval <- interval;
  t.next_sample <- t.cycles + interval;
  t.sampler <- Some f

let reset t =
  t.folded <- t.folded + t.cycles;
  t.cycles <- 0;
  Array.fill t.values 0 (Array.length t.values) untouched;
  match t.sampler with
  | Some _ -> t.next_sample <- t.sample_interval
  | None -> t.next_sample <- max_int
