type key = { func : string; instr : int }

type stat = {
  mutable fast : int;
  mutable slow : int;
  mutable locality : int;
  mutable custody : int;
  mutable paged : int;
  mutable writes : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable guard_cycles : int;
}

type t = { tbl : (key, stat) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }
let clear t = Hashtbl.reset t.tbl

let fresh_stat () =
  {
    fast = 0;
    slow = 0;
    locality = 0;
    custody = 0;
    paged = 0;
    writes = 0;
    bytes_in = 0;
    bytes_out = 0;
    guard_cycles = 0;
  }

let stat t key =
  match Hashtbl.find_opt t.tbl key with
  | Some s -> s
  | None ->
      let s = fresh_stat () in
      Hashtbl.replace t.tbl key s;
      s

let is_empty t = Hashtbl.length t.tbl = 0

let key_to_string k =
  if k.instr < 0 then k.func else Printf.sprintf "%s:%%%d" k.func k.instr

(* Hottest first: a site's heat is how much slow-path work it causes.
   Page faults at routed sites are slow-path work too. *)
let heat s = s.slow + s.locality + s.paged

let rows t =
  Hashtbl.fold (fun k s acc -> (k, s) :: acc) t.tbl []
  |> List.sort (fun (ka, a) (kb, b) ->
         match compare (heat b, b.bytes_in) (heat a, a.bytes_in) with
         | 0 -> (
             match compare b.fast a.fast with
             | 0 -> compare ka kb
             | c -> c)
         | c -> c)

let totals t =
  let acc = fresh_stat () in
  Hashtbl.iter
    (fun _ s ->
      acc.fast <- acc.fast + s.fast;
      acc.slow <- acc.slow + s.slow;
      acc.locality <- acc.locality + s.locality;
      acc.custody <- acc.custody + s.custody;
      acc.paged <- acc.paged + s.paged;
      acc.writes <- acc.writes + s.writes;
      acc.bytes_in <- acc.bytes_in + s.bytes_in;
      acc.bytes_out <- acc.bytes_out + s.bytes_out;
      acc.guard_cycles <- acc.guard_cycles + s.guard_cycles)
    t.tbl;
  acc
