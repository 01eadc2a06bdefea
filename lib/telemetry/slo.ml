(* Declarative latency SLOs over span operation classes.

   Spec grammar (one string, CLI-friendly):

     spec  ::= rule (';' rule)*
     rule  ::= class ':' obj (',' obj)*
     obj   ::= metric '<=' limit
     metric ::= 'p50' | 'p90' | 'p99' | 'p999' | 'mean' | 'max'
     limit ::= digits ['k' | 'm' | 'g']      (cycles)

   e.g. "lookup:p99<=250k,p50<=40k;get:p999<=2m"; p999 is the 99.9th
   percentile. Only the percentiles an attribution file stores are
   accepted, so a spec means the same live and against an exported
   file. *)

type metric = P of float | Mean | Max

type objective = { metric : metric; limit : int }
type rule = { cls : string; objectives : objective list }

type outcome = {
  o_cls : string;
  o_metric : metric;
  o_limit : int;
  o_actual : int option;
  o_pass : bool;
}

let metric_name = function
  | Mean -> "mean"
  | Max -> "max"
  | P p ->
      if Float.is_integer p then Printf.sprintf "p%.0f" p
      else
        (* p99.9 prints as p999, matching the input syntax. *)
        let s = Printf.sprintf "%g" p in
        "p" ^ String.concat "" (String.split_on_char '.' s)

(* The percentiles an attribution file stores ({!Span}'s wall summary). *)
let stored = [ ("p50", 50.0); ("p90", 90.0); ("p99", 99.0); ("p999", 99.9) ]

let parse_metric s =
  match (s, List.assoc_opt s stored) with
  | "mean", _ -> Ok Mean
  | "max", _ -> Ok Max
  | _, Some p -> Ok (P p)
  | _, None ->
      Error
        (Printf.sprintf
           "metric %S is not recorded (want p50, p90, p99, p999, mean or max)"
           s)

let parse_limit s =
  let n = String.length s in
  if n = 0 then Error "empty limit"
  else
    let scale, digits =
      match s.[n - 1] with
      | 'k' | 'K' -> (1_000, String.sub s 0 (n - 1))
      | 'm' | 'M' -> (1_000_000, String.sub s 0 (n - 1))
      | 'g' | 'G' -> (1_000_000_000, String.sub s 0 (n - 1))
      | _ -> (1, s)
    in
    match int_of_string_opt digits with
    | Some v when v >= 0 -> Ok (v * scale)
    | _ -> Error (Printf.sprintf "bad limit %S (want cycles, e.g. 250k)" s)

let parse_objective s =
  match String.index_opt s '<' with
  | Some i
    when i + 1 < String.length s && s.[i + 1] = '=' ->
      let m = String.trim (String.sub s 0 i) in
      let l = String.trim (String.sub s (i + 2) (String.length s - i - 2)) in
      Result.bind (parse_metric m) (fun metric ->
          Result.map (fun limit -> { metric; limit }) (parse_limit l))
  | _ -> Error (Printf.sprintf "objective %S must be metric<=limit" s)

let parse_rule s =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "rule %S must be class:objectives" s)
  | Some i ->
      let cls = String.trim (String.sub s 0 i) in
      if cls = "" then Error (Printf.sprintf "rule %S has an empty class" s)
      else
        let rest = String.sub s (i + 1) (String.length s - i - 1) in
        let parts =
          List.filter
            (fun p -> String.trim p <> "")
            (String.split_on_char ',' rest)
        in
        if parts = [] then
          Error (Printf.sprintf "rule %S has no objectives" s)
        else
          let rec go acc = function
            | [] -> Ok { cls; objectives = List.rev acc }
            | p :: rest -> (
                match parse_objective (String.trim p) with
                | Ok o -> go (o :: acc) rest
                | Error _ as e -> e)
          in
          go [] parts

let parse spec =
  let parts =
    List.filter
      (fun p -> String.trim p <> "")
      (String.split_on_char ';' spec)
  in
  if parts = [] then Error "empty SLO spec"
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | p :: rest -> (
          match parse_rule (String.trim p) with
          | Ok r -> go (r :: acc) rest
          | Error _ as e -> e)
    in
    go [] parts

(* Multi-line spec files: one (or several ';'-joined) rule(s) per line,
   '#' starts a comment, blank lines are skipped. Errors carry the
   1-based line number so a bad line in a 40-tenant SLO file is
   findable. *)
let parse_lines lines =
  let strip_comment s =
    match String.index_opt s '#' with
    | Some i -> String.sub s 0 i
    | None -> s
  in
  let rec go acc lineno = function
    | [] ->
        if acc = [] then Error "empty SLO spec (no rules in file)"
        else Ok (List.rev acc)
    | line :: rest -> (
        let body = String.trim (strip_comment line) in
        if body = "" then go acc (lineno + 1) rest
        else
          match parse body with
          | Ok rules -> go (List.rev_append rules acc) (lineno + 1) rest
          | Error e -> Error (Printf.sprintf "line %d: %s" lineno e))
  in
  go [] 1 lines

(* Evaluation is decoupled from where the numbers come from (a live span
   tracker or a parsed attribution file) through [lookup]. A class the
   run never exercised fails its objectives: an SLO on a missing
   operation is a misconfiguration worth failing loudly on. *)
let evaluate rules ~lookup =
  List.concat_map
    (fun r ->
      List.map
        (fun o ->
          let actual = lookup ~cls:r.cls o.metric in
          {
            o_cls = r.cls;
            o_metric = o.metric;
            o_limit = o.limit;
            o_actual = actual;
            o_pass = (match actual with Some a -> a <= o.limit | None -> false);
          })
        r.objectives)
    rules

let all_pass outcomes = List.for_all (fun o -> o.o_pass) outcomes
