type t = { counts : (string * string, int ref) Hashtbl.t }

let create () = { counts = Hashtbl.create 64 }

let cell t ~func ~block =
  let key = (func, block) in
  match Hashtbl.find_opt t.counts key with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t.counts key r;
      r

let add_block t ~func ~block n =
  let r = cell t ~func ~block in
  r := !r + n

let block_count t ~func ~block =
  match Hashtbl.find_opt t.counts (func, block) with Some r -> !r | None -> 0

let avg_trip_count t ~func ~header ~preheader =
  let entries = block_count t ~func ~block:preheader in
  let headers = block_count t ~func ~block:header in
  if entries = 0 then None
  else
    let trips = float_of_int (headers - entries) /. float_of_int entries in
    Some (max 0.0 trips)
