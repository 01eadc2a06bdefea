(* The host's speed, measured so that host timings can be corrected for it.

   On a shared virtual machine the host's speed wanders by tens of
   percent over tens of seconds, and every clock sees it, CPU time
   included. [sample] times a fixed piece of work that does not depend on
   the program under test. A timing multiplied by [factor] of the samples
   taken around it reads as seconds on the reference host, where [work]
   took [reference_s].

   The work resembles the simulator's hot loops: lookups and updates in a
   stdlib [Hashtbl] keyed by integers, and short-lived allocations. Among
   the loops tried (table probes in L1 or L2 with indirect calls, a
   pointer chase through 4 MiB, this one), it tracked the workloads'
   slowdowns most closely: over two minutes of each workload on a noisy
   host its time moved 0.9 to 1.0 times as much as theirs, in log terms,
   with correlation 0.8 to 0.9. It uses only the OCaml standard library,
   so a change to the program under test does not change its cost; a
   change to the compiler's flags, the runtime or its GC settings does. *)

(* Time of [work] in CPU seconds between the phases of a run on the
   reference host, a 2-vCPU Intel Xeon virtual machine, when it was
   quiet. *)
let reference_s = 0.010

let work () =
  let table = Hashtbl.create 1024 in
  let acc = ref 0 in
  for i = 0 to 100_000 do
    let k = (i * 7919) land 8191 in
    (match Hashtbl.find_opt table k with
    | Some v ->
        acc := !acc + v;
        Hashtbl.replace table k (v + i)
    | None -> Hashtbl.replace table k i);
    acc := List.fold_left ( + ) !acc (List.init (i land 7) (fun j -> i + j))
  done;
  !acc

let sample ~now () =
  let t0 = now () in
  ignore (Sys.opaque_identity (work ()));
  now () -. t0

(* A sampler that costs nothing and assumes the reference speed, for
   runs whose timings are not scaled. *)
let assumed () = reference_s

(* Reference speed over the host's speed, from samples taken around a
   timing. *)
let factor samples =
  reference_s *. float_of_int (List.length samples)
  /. List.fold_left ( +. ) 0.0 samples
