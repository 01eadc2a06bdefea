type sample = { at : int; counters : (string * int) list }

type t = {
  interval : int;
  mutable rev : sample list;
  mutable n : int;
}

let create ~interval =
  if interval <= 0 then invalid_arg "Series.create: interval must be > 0";
  { interval; rev = []; n = 0 }

let interval t = t.interval
let length t = t.n

let record t ~at counters =
  (* Skip exact duplicates of the previous timestamp (a forced final
     sample landing on a sampler boundary). *)
  match t.rev with
  | { at = prev; _ } :: _ when prev = at -> ()
  | _ ->
      t.rev <- { at; counters } :: t.rev;
      t.n <- t.n + 1

let samples t = List.rev t.rev

let names t =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun s -> List.iter (fun (k, _) -> Hashtbl.replace seen k ()) s.counters)
    t.rev;
  Hashtbl.fold (fun k () acc -> k :: acc) seen [] |> List.sort compare

let value sample name =
  match List.assoc_opt name sample.counters with Some v -> v | None -> 0

let series t name =
  List.map
    (fun s -> (float_of_int s.at, float_of_int (value s name)))
    (samples t)

(* Per-interval increments — the shape the paper's event-count figures
   plot. Counters are cumulative; a drop (from a Clock.reset at
   !bench_begin) restarts the baseline at zero. *)
let deltas t name =
  let rec go prev = function
    | [] -> []
    | s :: rest ->
        let v = value s name in
        let d = if v >= prev then v - prev else v in
        (float_of_int s.at, float_of_int d) :: go v rest
  in
  go 0 (samples t)

let to_csv t =
  let cols = names t in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "cycles";
  List.iter
    (fun c ->
      Buffer.add_char buf ',';
      Buffer.add_string buf c)
    cols;
  Buffer.add_char buf '\n';
  List.iter
    (fun s ->
      Buffer.add_string buf (string_of_int s.at);
      List.iter
        (fun c ->
          Buffer.add_char buf ',';
          Buffer.add_string buf (string_of_int (value s c)))
        cols;
      Buffer.add_char buf '\n')
    (samples t);
  Buffer.contents buf

let to_channel oc t = output_string oc (to_csv t)
