(* Module-level call graph over direct calls.

   The IR has no indirect calls: every callee is a string. Names the
   runtime-ABI table ({!Intrinsics.classify}) recognizes are not edges —
   they are leaves with fixed semantics. Everything else either resolves
   to a function defined in the module (a graph edge) or is an unknown
   external callee, recorded so the summary fixpoint can pin the caller
   at its conservative bottom and the summary-coverage lint can say
   why. *)

type node = {
  name : string;
  callees : string list;  (* defined direct callees, first-call order *)
  unknown_callees : string list;  (* undefined non-intrinsic callees *)
}

type t = {
  nodes : (string * node) list;  (* module order *)
  sccs : string list list;  (* bottom-up: callees' SCCs first *)
  in_cycle : (string, unit) Hashtbl.t;
}

let node_of defined (f : Ir.func) =
  let seen_d = Hashtbl.create 8 and seen_u = Hashtbl.create 8 in
  let dc = ref [] and uc = ref [] in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          match i.Ir.kind with
          | Ir.Call { callee; _ }
            when Intrinsics.classify callee = Intrinsics.Unknown ->
              if Hashtbl.mem defined callee then begin
                if not (Hashtbl.mem seen_d callee) then begin
                  Hashtbl.replace seen_d callee ();
                  dc := callee :: !dc
                end
              end
              else if not (Hashtbl.mem seen_u callee) then begin
                Hashtbl.replace seen_u callee ();
                uc := callee :: !uc
              end
          | _ -> ())
        b.instrs)
    f.blocks;
  {
    name = f.fname;
    callees = List.rev !dc;
    unknown_callees = List.rev !uc;
  }

(* Tarjan. SCCs complete in reverse topological order (an SCC is emitted
   only after every SCC it reaches), so reversing the completion list
   gives the bottom-up order the summary fixpoint wants. *)
let compute_sccs nodes =
  let node_tbl = Hashtbl.create 16 in
  List.iter (fun (name, n) -> Hashtbl.replace node_tbl name n) nodes;
  let index = Hashtbl.create 16 in
  let lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let counter = ref 0 in
  let sccs = ref [] in
  let rec connect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          connect w;
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (Hashtbl.find node_tbl v).callees;
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
            stack := rest;
            Hashtbl.remove on_stack w;
            if w = v then List.rev (w :: acc) else pop (w :: acc)
        | [] -> assert false
      in
      sccs := pop [] :: !sccs
    end
  in
  List.iter (fun (name, _) -> if not (Hashtbl.mem index name) then connect name) nodes;
  List.rev !sccs

let build (m : Ir.modul) =
  let defined = Hashtbl.create 16 in
  List.iter (fun (f : Ir.func) -> Hashtbl.replace defined f.Ir.fname ()) m.funcs;
  let nodes =
    List.map (fun (f : Ir.func) -> (f.fname, node_of defined f)) m.funcs
  in
  let sccs = compute_sccs nodes in
  let in_cycle = Hashtbl.create 8 in
  List.iter
    (fun scc ->
      match scc with
      | [ only ] ->
          let n = List.assoc only nodes in
          if List.mem only n.callees then Hashtbl.replace in_cycle only ()
      | members -> List.iter (fun f -> Hashtbl.replace in_cycle f ()) members)
    sccs;
  { nodes; sccs; in_cycle }

let node t name = List.assoc_opt name t.nodes
let sccs t = t.sccs
let is_recursive t name = Hashtbl.mem t.in_cycle name

(* The SCC fixpoint the interprocedural analyses share. The round cap is
   a tripwire far above what a finite lattice needs; tripping it hands
   each member of the SCC to [give_up], never a half-iterated claim. *)
let fixpoint ?(max_rounds = 50) ?(top_down = false) t (m : Ir.modul) ~seed
    ~step ~give_up =
  let funcs = Hashtbl.create 16 in
  List.iter (fun (f : Ir.func) -> Hashtbl.replace funcs f.fname f) m.funcs;
  List.iter
    (fun scc ->
      let members = List.filter_map (Hashtbl.find_opt funcs) scc in
      match scc with
      | [ only ] when not (is_recursive t only) ->
          List.iter (fun f -> ignore (step f)) members
      | _ ->
          List.iter seed members;
          let rec round n =
            if n >= max_rounds then List.iter give_up members
            else if
              List.fold_left (fun changed f -> step f || changed) false members
            then round (n + 1)
          in
          round 0)
    (if top_down then List.rev t.sccs else t.sccs)

(* Unknown external callees reachable from [name] through defined
   callees — the graph-structural "why is this function conservative"
   answer the summary lint reports. Deterministic: sorted, deduped. *)
let reaches_unknown t name =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let rec go n =
    if not (Hashtbl.mem seen n) then begin
      Hashtbl.replace seen n ();
      match node t n with
      | None -> ()
      | Some nd ->
          List.iter (fun u -> acc := u :: !acc) nd.unknown_callees;
          List.iter go nd.callees
    end
  in
  go name;
  List.sort_uniq compare !acc

let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "call graph (bottom-up SCCs):\n";
  List.iter
    (fun scc ->
      let rec_mark =
        if List.exists (is_recursive t) scc then " (recursive)" else ""
      in
      Buffer.add_string buf
        (Printf.sprintf "  [%s]%s\n" (String.concat " " scc) rec_mark);
      List.iter
        (fun name ->
          match node t name with
          | None -> ()
          | Some n ->
              if n.callees <> [] || n.unknown_callees <> [] then
                Buffer.add_string buf
                  (Printf.sprintf "    %s -> %s%s\n" name
                     (match n.callees with
                     | [] -> "-"
                     | l -> String.concat ", " l)
                     (match n.unknown_callees with
                     | [] -> ""
                     | l -> "  unknown: " ^ String.concat ", " l)))
        scc)
    t.sccs;
  Buffer.contents buf
