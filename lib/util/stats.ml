let mean a =
  assert (Array.length a > 0);
  Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let geomean a =
  assert (Array.length a > 0);
  let log_sum = Array.fold_left (fun acc x -> acc +. log x) 0.0 a in
  exp (log_sum /. float_of_int (Array.length a))

let sorted a =
  let b = Array.copy a in
  Array.sort compare b;
  b

let median a =
  assert (Array.length a > 0);
  let b = sorted a in
  let n = Array.length b in
  if n mod 2 = 1 then b.(n / 2)
  else (b.((n / 2) - 1) +. b.(n / 2)) /. 2.0

let percentile a p =
  if Array.length a = 0 then invalid_arg "Stats.percentile: empty sample";
  if not (p >= 0.0 && p <= 100.0) then
    invalid_arg (Printf.sprintf "Stats.percentile: p = %g not in [0, 100]" p);
  let b = sorted a in
  let n = Array.length b in
  (* Nearest-rank; the endpoints are pinned so p = 0 is the sample
     minimum (the rank formula alone would also give b.(0), but only via
     the clamp) and p = 100 the maximum. *)
  if p = 0.0 then b.(0)
  else if p = 100.0 then b.(n - 1)
  else
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    let idx = max 0 (min (n - 1) (rank - 1)) in
    b.(idx)

let minimum a = Array.fold_left min a.(0) a
let maximum a = Array.fold_left max a.(0) a

let pearson xs ys =
  if Array.length xs <> Array.length ys then
    invalid_arg "Stats.pearson: samples differ in length";
  if Array.length xs < 2 then
    invalid_arg "Stats.pearson: need at least two observations";
  let mx = mean xs and my = mean ys in
  let num = ref 0.0 and dx = ref 0.0 and dy = ref 0.0 in
  Array.iteri
    (fun i x ->
      let a = x -. mx and b = ys.(i) -. my in
      num := !num +. (a *. b);
      dx := !dx +. (a *. a);
      dy := !dy +. (b *. b))
    xs;
  if !dx = 0.0 || !dy = 0.0 then
    invalid_arg "Stats.pearson: correlation undefined for a constant sample";
  !num /. sqrt (!dx *. !dy)
