(* Keys are page indices, dense within each address region, so the
   identity spreads them over buckets as well as a real hash would,
   without a C call per probe. *)
include Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash x = x land max_int
end)
