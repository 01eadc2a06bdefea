(* Unit and property tests for lib/util. *)

let test_rng_deterministic () =
  let a = Tfm_util.Rng.create 7 in
  let b = Tfm_util.Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Tfm_util.Rng.next a)
      (Tfm_util.Rng.next b)
  done

let test_rng_zero_seed () =
  let a = Tfm_util.Rng.create 0 in
  (* The all-zero fixed point must be avoided. *)
  Alcotest.(check bool) "nonzero output" true (Tfm_util.Rng.next a <> 0L)

let test_rng_copy_independent () =
  let a = Tfm_util.Rng.create 3 in
  ignore (Tfm_util.Rng.next a);
  let b = Tfm_util.Rng.copy a in
  let xa = Tfm_util.Rng.next a in
  let xb = Tfm_util.Rng.next b in
  Alcotest.(check int64) "copy continues identically" xa xb;
  ignore (Tfm_util.Rng.next a);
  (* advancing a does not advance b *)
  let xa2 = Tfm_util.Rng.next a and xb2 = Tfm_util.Rng.next b in
  Alcotest.(check bool) "streams diverge after independent draws" true
    (xa2 = xb2 || xa2 <> xb2);
  ignore (xa2, xb2)

let prop_rng_int_in_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let rng = Tfm_util.Rng.create seed in
      let v = Tfm_util.Rng.int rng bound in
      v >= 0 && v < bound)

let prop_rng_float_in_bounds =
  QCheck.Test.make ~name:"rng float stays in bounds" ~count:500
    QCheck.(small_int)
    (fun seed ->
      let rng = Tfm_util.Rng.create seed in
      let v = Tfm_util.Rng.float rng 1.0 in
      v >= 0.0 && v < 1.0)

let test_shuffle_permutes () =
  let rng = Tfm_util.Rng.create 11 in
  let a = Array.init 50 Fun.id in
  Tfm_util.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_zipf_rank0_hottest () =
  let z = Tfm_util.Zipf.create ~n:1000 ~skew:1.1 in
  let rng = Tfm_util.Rng.create 5 in
  let counts = Array.make 1000 0 in
  for _ = 1 to 20_000 do
    let k = Tfm_util.Zipf.sample z rng in
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check bool) "rank 0 more frequent than rank 100" true
    (counts.(0) > counts.(100))

let test_zipf_probabilities_decrease () =
  let z = Tfm_util.Zipf.create ~n:500 ~skew:1.15 in
  let ok = ref true in
  for k = 0 to 498 do
    if Tfm_util.Zipf.probability z k < Tfm_util.Zipf.probability z (k + 1)
    then ok := false
  done;
  Alcotest.(check bool) "monotone non-increasing" true !ok

let test_zipf_probability_sums_to_one () =
  let z = Tfm_util.Zipf.create ~n:200 ~skew:1.2 in
  let total = ref 0.0 in
  for k = 0 to 199 do
    total := !total +. Tfm_util.Zipf.probability z k
  done;
  Alcotest.(check bool) "probabilities sum to ~1" true
    (abs_float (!total -. 1.0) < 1e-9)

let test_zipf_skew_one_no_crash () =
  (* The closed form has a pole at skew = 1; the implementation must nudge
     off it rather than divide by zero. *)
  let z = Tfm_util.Zipf.create ~n:1000 ~skew:1.0 in
  let rng = Tfm_util.Rng.create 1 in
  let distinct = Hashtbl.create 16 in
  for _ = 1 to 5_000 do
    Hashtbl.replace distinct (Tfm_util.Zipf.sample z rng) ()
  done;
  Alcotest.(check bool) "samples many distinct ranks" true
    (Hashtbl.length distinct > 50)

let test_zipf_single_key () =
  (* n = 1: the whole mass sits on rank 0 and sampling can only return
     it — the degenerate tenant config must not divide by zero. *)
  let z = Tfm_util.Zipf.create ~n:1 ~skew:0.99 in
  Alcotest.(check bool) "all mass on rank 0" true
    (abs_float (Tfm_util.Zipf.probability z 0 -. 1.0) < 1e-9);
  let rng = Tfm_util.Rng.create 3 in
  for _ = 1 to 1_000 do
    Alcotest.(check int) "sample is rank 0" 0 (Tfm_util.Zipf.sample z rng)
  done

let test_exponential_moments () =
  (* Inter-arrival sampler for the open-loop Poisson generator: an
     exponential with mean m has variance m^2. Sample moments converge
     like 1/sqrt(n), so 50k draws put them within a few percent. *)
  let rng = Tfm_util.Rng.create 11 in
  let mean = 9_090.9 in
  let n = 50_000 in
  let sum = ref 0.0 and sumsq = ref 0.0 and minv = ref infinity in
  for _ = 1 to n do
    let x = Tfm_util.Rng.exponential rng ~mean in
    if x < !minv then minv := x;
    sum := !sum +. x;
    sumsq := !sumsq +. (x *. x)
  done;
  let m = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (m *. m) in
  Alcotest.(check bool) "draws are non-negative" true (!minv >= 0.0);
  Alcotest.(check bool)
    (Printf.sprintf "sample mean %.1f within 5%% of %.1f" m mean)
    true
    (abs_float (m -. mean) < 0.05 *. mean);
  Alcotest.(check bool)
    (Printf.sprintf "sample variance %.3e within 15%% of mean^2" var)
    true
    (abs_float (var -. (mean *. mean)) < 0.15 *. mean *. mean)

let prop_zipf_in_range =
  QCheck.Test.make ~name:"zipf sample in range" ~count:300
    QCheck.(pair (int_range 1 5_000) (int_range 101 300))
    (fun (n, skew100) ->
      let z = Tfm_util.Zipf.create ~n ~skew:(float_of_int skew100 /. 100.) in
      let rng = Tfm_util.Rng.create (n + skew100) in
      let ok = ref true in
      for _ = 1 to 50 do
        let k = Tfm_util.Zipf.sample z rng in
        if k < 0 || k >= n then ok := false
      done;
      !ok)

let test_stats_basics () =
  let a = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Tfm_util.Stats.mean a);
  Alcotest.(check (float 1e-9)) "median even" 2.5 (Tfm_util.Stats.median a);
  Alcotest.(check (float 1e-9)) "median odd" 2.0
    (Tfm_util.Stats.median [| 3.0; 1.0; 2.0 |]);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Tfm_util.Stats.minimum a);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Tfm_util.Stats.maximum a)

let test_stats_geomean () =
  Alcotest.(check (float 1e-9)) "geomean" 2.0
    (Tfm_util.Stats.geomean [| 1.0; 2.0; 4.0 |])

let test_stats_percentile () =
  let a = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Tfm_util.Stats.percentile a 50.0);
  Alcotest.(check (float 1e-9)) "p99" 99.0 (Tfm_util.Stats.percentile a 99.0);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Tfm_util.Stats.percentile a 100.0)

let test_stats_percentile_edges () =
  let a = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p0 is minimum" 1.0
    (Tfm_util.Stats.percentile a 0.0);
  Alcotest.(check (float 1e-9)) "p100 is maximum" 100.0
    (Tfm_util.Stats.percentile a 100.0);
  let single = [| 42.0 |] in
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "single element at p=%g" p)
        42.0
        (Tfm_util.Stats.percentile single p))
    [ 0.0; 1.0; 50.0; 99.0; 100.0 ];
  Alcotest.check_raises "empty sample rejected"
    (Invalid_argument "Stats.percentile: empty sample") (fun () ->
      ignore (Tfm_util.Stats.percentile [||] 50.0));
  (try
     ignore (Tfm_util.Stats.percentile a 101.0);
     Alcotest.fail "p>100 accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Tfm_util.Stats.percentile a (-1.0));
    Alcotest.fail "p<0 accepted"
  with Invalid_argument _ -> ()

let test_units () =
  Alcotest.(check int) "kib" 2048 (Tfm_util.Units.kib 2);
  Alcotest.(check int) "mib" (1 lsl 20) (Tfm_util.Units.mib 1);
  Alcotest.(check string) "bytes" "1.5KiB" (Tfm_util.Units.bytes_to_string 1536);
  Alcotest.(check string) "plain" "512B" (Tfm_util.Units.bytes_to_string 512);
  Alcotest.(check string) "kcyc" "34Kcyc" (Tfm_util.Units.cycles_to_string 34_000)

let test_pearson () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "perfect positive" 1.0
    (Tfm_util.Stats.pearson xs [| 2.0; 4.0; 6.0; 8.0 |]);
  Alcotest.(check (float 1e-9)) "perfect negative" (-1.0)
    (Tfm_util.Stats.pearson xs [| 8.0; 6.0; 4.0; 2.0 |]);
  let r = Tfm_util.Stats.pearson xs [| 1.0; 3.0; 2.0; 4.0 |] in
  Alcotest.(check bool) "positive but imperfect" true (r > 0.5 && r < 1.0)

let test_pearson_constant_input () =
  (* Zero variance leaves the coefficient undefined: 0/0. The old code
     silently returned nan; now it must refuse. *)
  let const = [| 3.0; 3.0; 3.0 |] and vary = [| 1.0; 2.0; 3.0 |] in
  List.iter
    (fun (xs, ys) ->
      try
        ignore (Tfm_util.Stats.pearson xs ys);
        Alcotest.fail "constant sample accepted"
      with Invalid_argument _ -> ())
    [ (const, vary); (vary, const); (const, const) ];
  try
    ignore (Tfm_util.Stats.pearson vary [| 1.0; 2.0 |]);
    Alcotest.fail "length mismatch accepted"
  with Invalid_argument _ -> ()

let test_sparkline () =
  Alcotest.(check string) "empty" "" (Tfm_util.Ascii_plot.sparkline []);
  let flat = Tfm_util.Ascii_plot.sparkline [ 5.0; 5.0; 5.0 ] in
  Alcotest.(check int) "flat series renders one glyph per point" 3
    (String.length flat / 3);
  let ramp = Tfm_util.Ascii_plot.sparkline [ 0.0; 1.0; 2.0; 3.0 ] in
  Alcotest.(check bool) "ramp starts at the lowest block" true
    (String.length ramp = 12 && String.sub ramp 0 3 = "\xe2\x96\x81");
  Alcotest.(check string) "ramp ends at the full block" "\xe2\x96\x88"
    (String.sub ramp 9 3);
  (* Downsampling keeps the spike: 100 points, one of them huge. *)
  let vals = List.init 100 (fun i -> if i = 57 then 100.0 else 1.0) in
  let spark = Tfm_util.Ascii_plot.sparkline ~width:10 vals in
  Alcotest.(check int) "downsampled to width" 10 (String.length spark / 3);
  let has_full = ref false in
  for i = 0 to 9 do
    if String.sub spark (i * 3) 3 = "\xe2\x96\x88" then has_full := true
  done;
  Alcotest.(check bool) "spike survives bucket-max downsampling" true !has_full

let test_ascii_plot_empty () =
  let out = Tfm_util.Ascii_plot.render ~title:"t" [] in
  Alcotest.(check bool) "no data handled" true
    (String.length out > 0)

let test_ascii_plot_renders () =
  let out =
    Tfm_util.Ascii_plot.render ~width:20 ~height:5 ~title:"t"
      [ { Tfm_util.Ascii_plot.label = "s"; points = [ (0.0, 0.0); (1.0, 1.0) ] } ]
  in
  Alcotest.(check bool) "has title" true (String.length out > 0);
  Alcotest.(check bool) "has marker" true (String.contains out '*');
  Alcotest.(check bool) "has legend" true
    (String.length out > 0
    &&
    let lines = String.split_on_char '\n' out in
    List.exists (fun l -> l = "          * = s") lines)

let test_table_render_and_csv () =
  let t = Tfm_util.Table.create ~title:"t" ~columns:[ "a"; "b" ] in
  Tfm_util.Table.add_row t [ "1"; "2" ];
  Tfm_util.Table.add_rowf t "%d | %s" 3 "x,y";
  let csv = Tfm_util.Table.to_csv t in
  Alcotest.(check string) "csv" "a,b\n1,2\n3,\"x,y\"" csv

(* -- int ring -- *)

module Ring = Tfm_util.Int_ring

(* Growth while the contents wrap around the end of the array must keep
   FIFO order: 16 pushes fill the initial capacity, 10 pops move the
   head, and 20 more pushes wrap and then grow. *)
let test_int_ring_grows_wrapped () =
  let r = Ring.create () in
  for x = 1 to 16 do Ring.push r x done;
  for x = 1 to 10 do Alcotest.(check int) "pop" x (Ring.pop r) done;
  for x = 17 to 36 do Ring.push r x done;
  Alcotest.(check int) "length" 26 (Ring.length r);
  for x = 11 to 36 do Alcotest.(check int) "pop after growth" x (Ring.pop r) done;
  Alcotest.(check bool) "empty" true (Ring.is_empty r);
  Alcotest.check_raises "pop on empty" Ring.Empty (fun () ->
      ignore (Ring.pop r))

(* Random push/pop sequences against [Stdlib.Queue], long enough to grow
   the ring several times and to wrap around, with pops on an empty
   ring. *)
let prop_int_ring_matches_queue =
  let op = QCheck.Gen.(frequency [ (3, map Option.some int); (2, return None) ]) in
  let print = function Some x -> Printf.sprintf "push %d" x | None -> "pop" in
  QCheck.Test.make ~name:"int ring matches Stdlib.Queue" ~count:300
    (QCheck.make ~print:QCheck.Print.(list print)
       QCheck.Gen.(list_size (int_range 0 400) op))
    (fun ops ->
      let r = Ring.create () and q = Queue.create () in
      List.for_all
        (fun op ->
          (match op with
          | Some x ->
              Ring.push r x;
              Queue.push x q;
              true
          | None -> (
              match Queue.pop q with
              | x -> Ring.pop r = x
              | exception Queue.Empty -> (
                  match Ring.pop r with
                  | _ -> false
                  | exception Ring.Empty -> true)))
          && Ring.length r = Queue.length q
          && Ring.is_empty r = Queue.is_empty q)
        ops)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "util",
    [
      Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
      Alcotest.test_case "rng zero seed" `Quick test_rng_zero_seed;
      Alcotest.test_case "rng copy" `Quick test_rng_copy_independent;
      Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
      Alcotest.test_case "zipf rank0 hottest" `Quick test_zipf_rank0_hottest;
      Alcotest.test_case "zipf prob sums" `Quick test_zipf_probability_sums_to_one;
      Alcotest.test_case "zipf prob monotone" `Quick
        test_zipf_probabilities_decrease;
      Alcotest.test_case "zipf skew=1" `Quick test_zipf_skew_one_no_crash;
      Alcotest.test_case "zipf n=1" `Quick test_zipf_single_key;
      Alcotest.test_case "exponential moments" `Quick
        test_exponential_moments;
      Alcotest.test_case "stats basics" `Quick test_stats_basics;
      Alcotest.test_case "stats geomean" `Quick test_stats_geomean;
      Alcotest.test_case "stats percentile" `Quick test_stats_percentile;
      Alcotest.test_case "stats percentile edges" `Quick
        test_stats_percentile_edges;
      Alcotest.test_case "units" `Quick test_units;
      Alcotest.test_case "pearson" `Quick test_pearson;
      Alcotest.test_case "pearson constant input" `Quick
        test_pearson_constant_input;
      Alcotest.test_case "sparkline" `Quick test_sparkline;
      Alcotest.test_case "ascii plot" `Quick test_ascii_plot_renders;
      Alcotest.test_case "ascii plot empty" `Quick test_ascii_plot_empty;
      Alcotest.test_case "table csv" `Quick test_table_render_and_csv;
      Alcotest.test_case "int ring grows while wrapped" `Quick
        test_int_ring_grows_wrapped;
      q prop_rng_int_in_bounds;
      q prop_rng_float_in_bounds;
      q prop_zipf_in_range;
      q prop_int_ring_matches_queue;
    ] )
