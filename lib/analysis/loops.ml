type loop = {
  header : string;
  latches : string list;
  body : string list;
  preheader : string option;
  exits : string list;
  depth : int;
  parent : string option;
}

type t = {
  cfg : Cfg.t;
  dom : Dominators.t;
  all : loop list;
  by_block : (string, loop) Hashtbl.t; (* innermost loop per block *)
}

let contains loop l = List.mem l loop.body

let natural_loop_body cfg header latches =
  (* Backward reachability from the latches, stopping at the header. *)
  let in_body = Hashtbl.create 16 in
  Hashtbl.replace in_body header ();
  let rec go l =
    if not (Hashtbl.mem in_body l) then begin
      Hashtbl.replace in_body l ();
      List.iter go (Cfg.predecessors cfg l)
    end
  in
  List.iter go latches;
  in_body

let analyze (f : Ir.func) =
  let cfg = Cfg.build f in
  let dom = Dominators.compute cfg in
  let order = Cfg.labels cfg in
  (* Group back edges by header. *)
  let back_edges = Hashtbl.create 8 in
  List.iter
    (fun src ->
      List.iter
        (fun dst ->
          if Dominators.dominates dom dst src then begin
            let cur = try Hashtbl.find back_edges dst with Not_found -> [] in
            Hashtbl.replace back_edges dst (cur @ [ src ])
          end)
        (Cfg.successors cfg src))
    order;
  let raw_loops =
    List.filter_map
      (fun header ->
        match Hashtbl.find_opt back_edges header with
        | None -> None
        | Some latches ->
            let in_body = natural_loop_body cfg header latches in
            let body = List.filter (Hashtbl.mem in_body) order in
            let outside_preds =
              List.filter
                (fun p -> not (Hashtbl.mem in_body p))
                (Cfg.predecessors cfg header)
            in
            let preheader =
              match outside_preds with [ p ] -> Some p | _ -> None
            in
            let exits =
              body
              |> List.concat_map (Cfg.successors cfg)
              |> List.filter (fun s -> not (Hashtbl.mem in_body s))
              |> List.sort_uniq compare
            in
            Some
              { header; latches; body; preheader; exits; depth = 1;
                parent = None })
      order
  in
  (* Nesting: loop A encloses B if A's body contains B's header and A <> B.
     Depth = number of enclosing loops + 1; parent = smallest enclosing. *)
  let enclosing b =
    List.filter
      (fun a -> a.header <> b.header && contains a b.header)
      raw_loops
  in
  let all =
    List.map
      (fun l ->
        let encl = enclosing l in
        let parent =
          (* The immediate parent is the enclosing loop with the largest
             depth, i.e. the smallest body. *)
          match
            List.sort
              (fun a b -> compare (List.length a.body) (List.length b.body))
              encl
          with
          | p :: _ -> Some p.header
          | [] -> None
        in
        { l with depth = 1 + List.length encl; parent })
      raw_loops
  in
  let all = List.sort (fun a b -> compare a.depth b.depth) all in
  let by_block = Hashtbl.create 16 in
  (* Process outermost-to-innermost so the innermost wins. *)
  List.iter
    (fun l -> List.iter (fun blk -> Hashtbl.replace by_block blk l) l.body)
    all;
  { cfg; dom; all; by_block }

let cfg t = t.cfg
let dominators t = t.dom
let loops t = t.all
let loop_of_block t blk = Hashtbl.find_opt t.by_block blk

let innermost t =
  List.filter
    (fun l ->
      not
        (List.exists (fun other -> other.parent = Some l.header) t.all))
    t.all
