let kib n = n * 1024
let mib n = n * 1024 * 1024

let scaled suffixes unit v =
  let rec pick v = function
    | [ last ] -> (v, last)
    | s :: rest -> if v < unit then (v, s) else pick (v /. unit) rest
    | [] -> assert false
  in
  pick v suffixes

let pp_bytes fmt n =
  let v, s =
    scaled [ "B"; "KiB"; "MiB"; "GiB"; "TiB" ] 1024.0 (float_of_int n)
  in
  if Float.is_integer v && v < 1024.0 then Format.fprintf fmt "%.0f%s" v s
  else Format.fprintf fmt "%.1f%s" v s

let bytes_to_string n = Format.asprintf "%a" pp_bytes n

let pp_cycles fmt n =
  let v, s = scaled [ "cyc"; "Kcyc"; "Mcyc"; "Gcyc" ] 1000.0 (float_of_int n) in
  if Float.is_integer v && v < 1000.0 then Format.fprintf fmt "%.0f%s" v s
  else Format.fprintf fmt "%.1f%s" v s

let cycles_to_string n = Format.asprintf "%a" pp_cycles n
