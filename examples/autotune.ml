(* Object-size autotuning: the Section 3.2 proposal, live.

   The paper: "the small search space suggests that an autotuning
   approach is feasible ... an exhaustive search involving recompilation
   and a short-term execution". This example runs that exact loop for two
   workloads with opposite needs and shows the tuner picking opposite
   sizes.

   Run with: dune exec examples/autotune.exe *)

open Workloads

let show name results best =
  Printf.printf "%s:\n" name;
  List.iter
    (fun (osz, cycles) ->
      Printf.printf "  %5dB objects -> %s%s\n" osz
        (Tfm_util.Units.cycles_to_string cycles)
        (if osz = best then "   <- chosen" else ""))
    results;
  print_newline ()

let () =
  (* A Zipfian hashmap: tiny values, no spatial locality. *)
  let hm =
    Hashmap.workload (Hashmap.default_params ~keys:40_000 ~lookups:60_000)
  in
  let best_hm, hm_results =
    Driver.autotune_object_size ~blobs:(Lazy.force hm.blobs) hm.build
      ~local_budget:(hm.working_set / 4)
  in
  show "hashmap, Zipf 1.02 (fine-grained, low spatial locality)" hm_results
    best_hm;

  (* STREAM copy: perfect spatial locality. *)
  let st = Stream.workload ~n:100_000 Stream.Copy in
  let best_st, st_results =
    Driver.autotune_object_size st.build ~local_budget:(st.working_set / 4)
  in
  show "STREAM copy (sequential, high spatial locality)" st_results best_st;

  Printf.printf
    "The tuner recompiles the unmodified program once per candidate and \n\
     keeps the fastest — no programmer annotations, which is the point: \n\
     AIFM would ask the developer to pick these numbers per data \n\
     structure.\n";
  assert (best_hm < best_st)
