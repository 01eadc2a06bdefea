(** NYC-taxi-style dataframe analytics (Section 4.5, Figures 14 and 15).

    A columnar dataframe of synthetic taxi trips and the query mix of the
    paper's Kaggle-derived benchmark: whole-column scans (mean distance,
    max fare, passenger-count histogram — tight loops, high spatial
    locality, no temporal reuse) followed by a group-by aggregation whose
    per-group loops iterate small collections of rows — the low-density
    loops that make indiscriminate chunking a loss in Figure 15.

    Three implementations share bit-identical arithmetic:
    - {!build}: the IR program (compiled by TrackFM, or run untransformed
      on the local/Fastswap backends);
    - {!run_aifm}: the hand-ported library version over {!Aifm.Remote}
      arrays, the paper's AIFM comparison line;
    - {!checksum}: the host reference. *)

type params = {
  rows : int;
  groups : int; (** distinct group keys in the group-by (rows/12 gives the
                    paper-like short per-group loops) *)
  agg_repeat : int;
      (** how many times the per-group aggregation phases run (EDA
          notebooks re-aggregate the same frame repeatedly); weights the
          Figure 15 short loops *)
}

val default_params : rows:int -> params
(** groups = rows/12, agg_repeat = 3. *)

val build : params -> unit -> Ir.modul

val working_set_bytes : params -> int

val checksum : params -> int

val run_aifm :
  ?cost:Cost_model.t ->
  ?object_size:int ->
  local_budget:int ->
  params ->
  int * Clock.t
(** Execute the AIFM port against a fresh simulated cluster; returns the
    checksum (must equal {!checksum}) and the clock with cycles and
    transfer counters. The measured region excludes dataframe
    construction, like the IR program's [!bench_begin]. *)

val workload : params -> Workload.t
(** ["analytics"]: {!build} against {!checksum}. *)
