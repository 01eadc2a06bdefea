(** Declarative latency SLOs over span operation classes.

    A spec is one CLI-friendly string:
    ["lookup:p99<=250k,p50<=40k;get:p999<=2m"] — semicolon-separated
    rules, each a class name and comma-separated [metric<=limit]
    objectives. Metrics are [p50], [p90], [p99] and [p999] (99.9), the
    percentiles an attribution file stores, or [mean] or [max]; limits
    are cycles with an optional [k]/[m]/[g] suffix. *)

type metric = P of float  (** 50, 90, 99 or 99.9 *) | Mean | Max

type objective = { metric : metric; limit : int }
type rule = { cls : string; objectives : objective list }

type outcome = {
  o_cls : string;
  o_metric : metric;
  o_limit : int;
  o_actual : int option;  (** [None]: the run has no such class *)
  o_pass : bool;
}

val metric_name : metric -> string
val parse : string -> (rule list, string) result
(** A percentile other than the four stored ones is an error naming it. *)

val parse_lines : string list -> (rule list, string) result
(** Multi-line form ([report slo --slo-file]): each line holds one or
    more ';'-joined rules, ['#'] starts a comment, blank lines are
    skipped. On a bad line the error names its 1-based line number. *)

val evaluate :
  rule list -> lookup:(cls:string -> metric -> int option) -> outcome list
(** [lookup] maps a class name and metric to the observed value; a class
    the run never exercised fails its objectives (an SLO on a missing
    operation is a misconfiguration, not a pass). *)

val all_pass : outcome list -> bool
