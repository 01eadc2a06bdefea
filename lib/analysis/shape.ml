(* Interprocedural shape analysis: recursive-structure detection that
   sees pointer chases through helper calls.

   The access-pattern classifier's blind spot (ROADMAP item 3's
   "remaining headroom") is a dereference chain hidden behind helpers:
   summaries keep chains alive only for pass-through ([From_arg])
   callees, so a `node_next`-style accessor — whose body *is* the load —
   collapses the caller's chain to zero and the site stays on the taxed
   guard path. This module computes, alongside the {!Summary} fixpoint
   and over the same {!Callgraph} SCCs, the three facts that close the
   gap:

   - per allocation site: whether the allocated objects form a recursive
     linked structure (self-referential field stores — list, tree, or
     DAG-ish graph) and which field offsets are the link fields;
   - per function (bottom-up): [ret_hops] — the return value is
     parameter [i] after [d] loaded hops (generalizing [From_arg], which
     is the [d = 0] case) — and [chases] — the "chase-through" bit: the
     maximum dependent-load depth the function performs on addresses
     derived from each parameter, composed transitively through callees;
   - per function (top-down, callers first): a calling context [ctx] —
     the maximum chain depth and the allocation-site provenance flowing
     into each parameter across all call chains — so the access *inside*
     the helper classifies with the caller's chain, not as Unknown.

   Everything here is advice with a dynamic audit, never proof: the
   route pass consumes these facts to pick a mechanism, the coverage
   checker re-proves the resulting split structurally without ever
   consulting them, and the interpreter's shadow recorder
   ({!Tfm_interp.Shadow}) cross-checks the claimed depths against
   observed per-site deref-chain depths in CI. A lying shape summary can
   misroute a site (still sound — both mechanisms protect) but cannot
   survive the shadow diff. *)

(* Chain depths saturate here, both statically and in the interpreter's
   shadow recorder (`Tfm_interp.Shadow.depth_cap` mirrors this value;
   the interp library cannot depend on this one). Saturation is what
   makes the recursive-SCC fixpoint finite: `subtree_sum`-style
   self-composition grows the chase depth by one per round until the
   cap. *)
let depth_cap = 9

type struct_kind = Scalar | List | Tree | Graph

let kind_to_string = function
  | Scalar -> "scalar"
  | List -> "list"
  | Tree -> "tree"
  | Graph -> "graph"

let kind_is_recursive = function
  | List | Tree | Graph -> true
  | Scalar -> false

type alloc_site = {
  alloc_id : int;
  alloc_block : string;
  kind : struct_kind;
  link_offsets : int list;  (* sorted distinct known link-field offsets *)
  unknown_link : bool;  (* a self-link whose field offset we can't name *)
}

type fshape = {
  ret_hops : (int * int) option;
      (* return value = parameter i after d loaded hops (d = 0 is the
         pass-through case [Summary.From_arg] already covers) *)
  chases : int array;
      (* per parameter: max dependent-load depth performed on addresses
         derived from it, through callees; > 0 is the chase-through bit *)
  links : (int * int * int option) list;
      (* stores parameter src into a field of parameter dst: constructor
         helpers surface their caller's self-links this way *)
  allocs : alloc_site list;  (* ascending alloc_id *)
}

(* Allocation-site provenance, module-global ("which structure is this
   pointer into?"). *)
type gprov = Gbot | Gsite of string * int | Gtop

type ctx = { arg_depth : int array; arg_struct : gprov array }

type env = {
  shapes : (string, fshape) Hashtbl.t;
  ctxs : (string, ctx) Hashtbl.t;
  sites : (string * int, alloc_site) Hashtbl.t;
}

let no_facts ~nparams =
  { ret_hops = None; chases = Array.make nparams 0; links = []; allocs = [] }

let empty_ctx ~nparams =
  { arg_depth = Array.make nparams 0; arg_struct = Array.make nparams Gbot }

let summary (env : env) name = Hashtbl.find_opt env.shapes name
let context (env : env) name = Hashtbl.find_opt env.ctxs name
let site_of (env : env) key = Hashtbl.find_opt env.sites key

(* Tamper hooks: tests inject lying facts and watch the shadow validator
   (not the checker, which never reads these) catch the misroute. *)
let set (env : env) name s = Hashtbl.replace env.shapes name s
let set_context (env : env) name c = Hashtbl.replace env.ctxs name c

(* ------------------------------------------------------------------ *)
(* Bottom-up: hops-from-argument lattice.                              *)
(* ------------------------------------------------------------------ *)

(* Hbot: no information yet (optimistic fixpoint seed / non-pointer).
   Harg (i, d): derived from parameter i through d loaded hops.
   Hnone: definitely not a plain arg-derived chain. *)
type hops = Hbot | Harg of int * int | Hnone

(* Control-flow join (phi/select): claiming "arg i after d hops" is only
   honest if every arm agrees on the parameter; mixing with a non-arg
   value degrades to Hnone so ret_hops never overstates. *)
let hops_join a b =
  match (a, b) with
  | Hbot, x | x, Hbot -> x
  | Harg (i, d), Harg (i', d') when i = i' -> Harg (i, max d d')
  | _ -> Hnone

(* Arithmetic combine (add/sub): a constant/unknown-integer side is an
   address offset, not a merge — keep the single arg-derived side, the
   same shape {!Access_pattern.chain_depth_of} accepts. *)
let hops_offset a b =
  match (a, b) with
  | Hbot, x | x, Hbot -> x
  | (Harg _ as h), Hnone | Hnone, (Harg _ as h) -> h
  | Harg (i, d), Harg (i', d') when i = i' -> Harg (i, max d d')
  | _ -> Hnone

(* Per-function hops fixpoint: for every value-defining instruction, is
   it parameter i after d loaded hops? *)
let hops_fixpoint (env : env) (f : Ir.func) =
  let tbl = Hashtbl.create 64 in
  let value_hops = function
    | Ir.Const _ | Ir.Constf _ | Ir.Sym _ -> Hnone
    | Ir.Arg i -> Harg (i, 0)
    | Ir.Reg id -> ( try Hashtbl.find tbl id with Not_found -> Hbot)
  in
  let transfer (i : Ir.instr) =
    match i.Ir.kind with
    | Ir.Gep { base; _ } -> value_hops base
    | Ir.Load { ptr; is_float = false; _ } -> (
        match value_hops ptr with
        | Harg (i, d) -> Harg (i, min depth_cap (d + 1))
        | h -> h)
    | Ir.Phi incoming ->
        List.fold_left (fun acc (_, v) -> hops_join acc (value_hops v)) Hbot
          incoming
    | Ir.Select (_, a, b) -> hops_join (value_hops a) (value_hops b)
    | Ir.Binop ((Ir.Add | Ir.Sub), a, b) ->
        hops_offset (value_hops a) (value_hops b)
    | Ir.Call { callee; args } -> (
        match
          Option.bind (Hashtbl.find_opt env.shapes callee) (fun s ->
              s.ret_hops)
        with
        | Some (j, d) -> (
            match Option.map value_hops (List.nth_opt args j) with
            | Some (Harg (i, d0)) -> Harg (i, min depth_cap (d0 + d))
            | Some h -> h
            | None -> Hnone)
        | None -> Hnone)
    | _ -> Hnone
  in
  Defuse.fixpoint f tbl ~bot:Hbot ~join:hops_join transfer;
  value_hops

(* ------------------------------------------------------------------ *)
(* Bottom-up: self-link detection (local allocation-site provenance).  *)
(* ------------------------------------------------------------------ *)

type aprov = Abot | Asite of int | Aarg of int | Atop

let aprov_join a b =
  match (a, b) with
  | Abot, x | x, Abot -> x
  | _ when a = b -> a
  | _ -> Atop

(* Static field offset of a pointer expression relative to its object:
   the sum of accumulated gep/add constant displacements. The
   index*scale element-selection part is deliberately ignored — links
   between *elements* of one arena are exactly the self-references we
   are looking for, and the field offset within an element is the
   constant part. *)
let field_of du v =
  let rec go visited v =
    match v with
    | Ir.Arg _ -> Some 0
    | Ir.Reg id -> (
        if List.mem id visited then None
        else
          match Defuse.def du id with
          | None -> None
          | Some i -> (
              match i.Ir.kind with
              | Ir.Gep { base; offset; _ } ->
                  Option.map (fun o -> o + offset) (go (id :: visited) base)
              | Ir.Call { callee; _ }
                when Intrinsics.classify callee = Intrinsics.Alloc ->
                  Some 0
              | Ir.Binop (Ir.Add, a, Ir.Const c)
              | Ir.Binop (Ir.Add, Ir.Const c, a) ->
                  Option.map (fun o -> o + c) (go (id :: visited) a)
              | Ir.Binop (Ir.Sub, a, Ir.Const c) ->
                  Option.map (fun o -> o - c) (go (id :: visited) a)
              | _ -> None))
    | _ -> None
  in
  go [] v

module IntSet = Set.Make (Int)

(* One aprov pass over [f] given an existing per-site link map (for the
   load-closure rule: loading a link field of a recursive structure
   yields a pointer into the same structure). Returns the links found.
   The caller re-runs this with the grown link map until stable — the
   closure rule is not monotone under a single in-place fixpoint (Atop
   cannot be refined back to Asite), so each round recomputes from
   scratch against a frozen link map. *)
let link_round (env : env) f du ~linked =
  let tbl = Hashtbl.create 64 in
  let value_aprov = function
    | Ir.Const _ | Ir.Constf _ -> Abot
    | Ir.Sym _ -> Atop
    | Ir.Arg i -> Aarg i
    | Ir.Reg id -> ( try Hashtbl.find tbl id with Not_found -> Abot)
  in
  let transfer (i : Ir.instr) =
    match i.Ir.kind with
    | Ir.Call { callee; args } -> (
        match Intrinsics.classify callee with
        | Intrinsics.Alloc -> Asite i.Ir.id
        | Intrinsics.Unknown -> (
            match
              Option.bind (Hashtbl.find_opt env.shapes callee) (fun s ->
                  s.ret_hops)
            with
            | Some (j, 0) ->
                Option.value ~default:Atop
                  (Option.map value_aprov (List.nth_opt args j))
            | Some (j, _) -> (
                (* Loaded hops inside the callee: the result points into
                   the same structure only if that structure is linked. *)
                match Option.map value_aprov (List.nth_opt args j) with
                | Some (Asite s as a) when Hashtbl.mem linked s -> a
                | Some (Aarg _ as a) -> a
                | Some Abot -> Abot
                | _ -> Atop)
            | None -> Atop)
        | _ -> Abot)
    | Ir.Gep { base; _ } -> value_aprov base
    | Ir.Binop ((Ir.Add | Ir.Sub), a, b) -> (
        match (value_aprov a, value_aprov b) with
        | x, Abot | Abot, x -> x
        | x, y -> aprov_join x y)
    | Ir.Phi incoming ->
        List.fold_left
          (fun acc (_, v) -> aprov_join acc (value_aprov v))
          Abot incoming
    | Ir.Select (_, a, b) -> aprov_join (value_aprov a) (value_aprov b)
    | Ir.Load { ptr; is_float = false; _ } -> (
        match value_aprov ptr with
        | Asite s as a when Hashtbl.mem linked s -> a
        | Aarg _ as a -> a (* closure decided by the caller's structure *)
        | Abot -> Abot
        | _ -> Atop)
    | _ -> Abot
  in
  Defuse.fixpoint f tbl ~bot:Abot ~join:aprov_join transfer;
  (* Harvest self-links from stores and from callee link summaries. *)
  let self_links = ref [] (* (site id, field offset option) *) in
  let arg_links = ref [] (* (src param, dst param, field) *) in
  let record_pair src dst fld =
    match (src, dst) with
    | Asite s, Asite s' when s = s' -> self_links := (s, fld) :: !self_links
    | Aarg i, Aarg j -> arg_links := (i, j, fld) :: !arg_links
    | _ -> ()
  in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          match i.Ir.kind with
          | Ir.Store { ptr; v; is_float = false; _ } ->
              record_pair (value_aprov v) (value_aprov ptr) (field_of du ptr)
          | Ir.Call { callee; args } -> (
              match Hashtbl.find_opt env.shapes callee with
              | Some s ->
                  List.iter
                    (fun (src, dst, fld) ->
                      match
                        (List.nth_opt args src, List.nth_opt args dst)
                      with
                      | Some a, Some b ->
                          record_pair (value_aprov a) (value_aprov b) fld
                      | _ -> ())
                    s.links
              | None -> ())
          | _ -> ())
        b.Ir.instrs)
    f.Ir.blocks;
  (!self_links, !arg_links)

(* ------------------------------------------------------------------ *)
(* Bottom-up per-function summary.                                     *)
(* ------------------------------------------------------------------ *)

let summarize (env : env) (f : Ir.func) du : fshape =
  let hops = hops_fixpoint env f in
  (* Link discovery to a fixpoint over the closure rule; the link set
     only grows and is bounded by the store sites, so this terminates
     fast (one extra round in practice). *)
  let linked = Hashtbl.create 8 in
  let self_links = ref [] and arg_links = ref [] in
  let rec refine round =
    let sl, al = link_round env f du ~linked in
    self_links := sl;
    arg_links := al;
    let grew = ref false in
    List.iter
      (fun (s, _) ->
        if not (Hashtbl.mem linked s) then begin
          Hashtbl.replace linked s ();
          grew := true
        end)
      sl;
    if !grew && round < 8 then refine (round + 1)
  in
  refine 0;
  (* Allocation sites in block order, with their link verdicts. *)
  let allocs = ref [] in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          match i.Ir.kind with
          | Ir.Call { callee; _ }
            when Intrinsics.classify callee = Intrinsics.Alloc ->
              let known, unknown =
                List.fold_left
                  (fun (ks, unk) (s, fld) ->
                    if s <> i.Ir.id then (ks, unk)
                    else
                      match fld with
                      | Some o -> (IntSet.add o ks, unk)
                      | None -> (ks, true))
                  (IntSet.empty, false) !self_links
              in
              let n = IntSet.cardinal known in
              let kind =
                if unknown then Graph
                else if n = 0 then Scalar
                else if n = 1 then List
                else if n = 2 then Tree
                else Graph
              in
              allocs :=
                {
                  alloc_id = i.Ir.id;
                  alloc_block = b.Ir.label;
                  kind;
                  link_offsets = IntSet.elements known;
                  unknown_link = unknown;
                }
                :: !allocs
          | _ -> ())
        b.Ir.instrs)
    f.Ir.blocks;
  (* Chase-through bits: dependent-load depth per parameter, from direct
     accesses and composed through callees. *)
  let chases = Array.make f.Ir.nparams 0 in
  let bump i d =
    if i < f.Ir.nparams then chases.(i) <- max chases.(i) (min depth_cap d)
  in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          match i.Ir.kind with
          | Ir.Load { ptr; _ } | Ir.Store { ptr; _ } -> (
              match hops ptr with Harg (i, d) -> bump i (d + 1) | _ -> ())
          | Ir.Call { callee; args } -> (
              match Intrinsics.classify callee with
              | Intrinsics.Guard _ | Intrinsics.Chunk_access _
              | Intrinsics.Page _ -> (
                  match args with
                  | ptr :: _ -> (
                      match hops ptr with
                      | Harg (i, d) -> bump i (d + 1)
                      | _ -> ())
                  | [] -> ())
              | Intrinsics.Unknown -> (
                  match Hashtbl.find_opt env.shapes callee with
                  | Some s ->
                      List.iteri
                        (fun k a ->
                          if
                            k < Array.length s.chases
                            && s.chases.(k) > 0
                          then
                            match hops a with
                            | Harg (i, d) -> bump i (d + s.chases.(k))
                            | _ -> ())
                        args
                  | None -> ())
              | _ -> ())
          | _ -> ())
        b.Ir.instrs)
    f.Ir.blocks;
  (* Return hops: joined over all returns. *)
  let ret = ref Hbot in
  List.iter
    (fun (b : Ir.block) ->
      match b.Ir.term with
      | Ir.Ret (Some v) -> ret := hops_join !ret (hops v)
      | _ -> ())
    f.Ir.blocks;
  let ret_hops = match !ret with Harg (i, d) -> Some (i, d) | _ -> None in
  (* Deterministic, deduplicated arg links. *)
  let links =
    List.sort_uniq compare !arg_links
  in
  { ret_hops; chases; links; allocs = List.rev !allocs }

(* ------------------------------------------------------------------ *)
(* Absolute (context-aware) depth and structure of a value.            *)
(* ------------------------------------------------------------------ *)

(* These two walkers are the product clients actually consume: given a
   def lookup for the function's body, the value's chain depth and
   structure with the calling context folded in. Also used internally by
   the top-down pass to evaluate call arguments. *)

let value_depth (env : env) ~fname (def : int -> Ir.instr option) v =
  let ctx = context env fname in
  let arg_depth i =
    match ctx with
    | Some c when i < Array.length c.arg_depth -> c.arg_depth.(i)
    | _ -> 0
  in
  let rec go visited v =
    match v with
    | Ir.Const _ | Ir.Constf _ | Ir.Sym _ -> 0
    | Ir.Arg i -> arg_depth i
    | Ir.Reg id -> (
        if List.mem id visited then 0
        else
          let visited = id :: visited in
          match def id with
          | None -> 0
          | Some i -> (
              match i.Ir.kind with
              | Ir.Gep { base; _ } -> go visited base
              | Ir.Load { ptr; is_float = false; _ } ->
                  min depth_cap (1 + go visited ptr)
              | Ir.Phi incoming ->
                  List.fold_left
                    (fun acc (_, v) -> max acc (go visited v))
                    0 incoming
              | Ir.Select (_, a, b) -> max (go visited a) (go visited b)
              | Ir.Binop ((Ir.Add | Ir.Sub), a, b) ->
                  max (go visited a) (go visited b)
              | Ir.Call { callee; args } -> (
                  match
                    Option.bind (summary env callee) (fun s -> s.ret_hops)
                  with
                  | Some (j, d) -> (
                      match List.nth_opt args j with
                      | Some a -> min depth_cap (d + go visited a)
                      | None -> 0)
                  | None -> 0)
              | _ -> 0))
  in
  go [] v

let gprov_join a b =
  match (a, b) with
  | Gbot, x | x, Gbot -> x
  | _ when a = b -> a
  | _ -> Gtop

let value_gprov (env : env) ~fname (def : int -> Ir.instr option) v =
  let ctx = context env fname in
  let arg_struct i =
    match ctx with
    | Some c when i < Array.length c.arg_struct -> c.arg_struct.(i)
    | _ -> Gbot
  in
  let recursive_site key =
    match site_of env key with
    | Some s -> kind_is_recursive s.kind
    | None -> false
  in
  let rec go visited v =
    match v with
    | Ir.Const _ | Ir.Constf _ -> Gbot
    | Ir.Sym _ -> Gtop
    | Ir.Arg i -> arg_struct i
    | Ir.Reg id -> (
        if List.mem id visited then Gbot
        else
          let visited = id :: visited in
          match def id with
          | None -> Gbot
          | Some i -> (
              match i.Ir.kind with
              | Ir.Call { callee; args } -> (
                  match Intrinsics.classify callee with
                  | Intrinsics.Alloc -> Gsite (fname, i.Ir.id)
                  | Intrinsics.Unknown -> (
                      match
                        Option.bind (summary env callee) (fun s ->
                            s.ret_hops)
                      with
                      | Some (j, d) -> (
                          match
                            Option.map (go visited) (List.nth_opt args j)
                          with
                          | Some (Gsite (gf, gid)) ->
                              if d = 0 || recursive_site (gf, gid) then
                                Gsite (gf, gid)
                              else Gtop
                          | Some g -> g
                          | None -> Gtop)
                      | None -> Gtop)
                  | _ -> Gbot)
              | Ir.Gep { base; _ } -> go visited base
              | Ir.Load { ptr; is_float = false; _ } -> (
                  match go visited ptr with
                  | Gsite (gf, gid) when recursive_site (gf, gid) ->
                      Gsite (gf, gid)
                  | Gbot -> Gbot
                  | _ -> Gtop)
              | Ir.Phi incoming ->
                  List.fold_left
                    (fun acc (_, v) -> gprov_join acc (go visited v))
                    Gbot incoming
              | Ir.Select (_, a, b) ->
                  gprov_join (go visited a) (go visited b)
              | Ir.Binop ((Ir.Add | Ir.Sub), a, b) -> (
                  match (go visited a, go visited b) with
                  | x, Gbot | Gbot, x -> x
                  | x, y -> gprov_join x y)
              | _ -> Gbot))
  in
  go [] v

let value_struct env ~fname def v =
  match value_gprov env ~fname def v with
  | Gsite (f, id) -> Some (f, id)
  | Gbot | Gtop -> None

let value_kind env ~fname def v =
  Option.bind (value_struct env ~fname def v) (fun key ->
      Option.map (fun s -> s.kind) (site_of env key))

(* ------------------------------------------------------------------ *)
(* Module analysis: bottom-up summaries, then top-down contexts.       *)
(* ------------------------------------------------------------------ *)

let analyze (m : Ir.modul) : env =
  let cg = Callgraph.build m in
  let env =
    {
      shapes = Hashtbl.create 16;
      ctxs = Hashtbl.create 16;
      sites = Hashtbl.create 16;
    }
  in
  (* No function body changes during the analysis, so both phases share
     one def-use map per function. *)
  let dus = Hashtbl.create 16 in
  List.iter
    (fun (f : Ir.func) -> Hashtbl.replace dus f.Ir.fname (Defuse.build f))
    m.funcs;
  (* Phase 1: bottom-up fshapes over the same SCC order the Summary
     fixpoint uses. Recursive SCCs iterate from the optimistic empty
     summary; depths saturate at [depth_cap] so the lattice is finite.
     Tripping the round cap drops the SCC back to no-facts — the sound
     default (no routing upgrade), never a wrong claim. *)
  let no_facts_for (f : Ir.func) =
    Hashtbl.replace env.shapes f.fname (no_facts ~nparams:f.nparams)
  in
  Callgraph.fixpoint cg m ~seed:no_facts_for ~give_up:no_facts_for
    ~step:(fun f ->
      let nu = summarize env f (Hashtbl.find dus f.fname) in
      let changed = summary env f.fname <> Some nu in
      Hashtbl.replace env.shapes f.fname nu;
      changed);
  (* Global allocation-site table. *)
  List.iter
    (fun (f : Ir.func) ->
      match Hashtbl.find_opt env.shapes f.Ir.fname with
      | Some s ->
          List.iter
            (fun a -> Hashtbl.replace env.sites (f.Ir.fname, a.alloc_id) a)
            s.allocs
      | None -> ())
    m.funcs;
  (* Phase 2: top-down calling contexts, callers first. Each call site
     joins its argument depths and structure provenance into the
     callee's context, so every context exists before its SCC is
     reached and there is nothing to seed; recursive SCCs iterate until
     the capped depths stabilize. *)
  List.iter
    (fun (f : Ir.func) ->
      Hashtbl.replace env.ctxs f.Ir.fname (empty_ctx ~nparams:f.Ir.nparams))
    m.funcs;
  let propagate_from (f : Ir.func) =
    let def = Defuse.def (Hashtbl.find dus f.Ir.fname) in
    let changed = ref false in
    List.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun (i : Ir.instr) ->
            match i.Ir.kind with
            | Ir.Call { callee; args }
              when Intrinsics.classify callee = Intrinsics.Unknown
                   && Hashtbl.mem dus callee -> (
                match Hashtbl.find_opt env.ctxs callee with
                | None -> ()
                | Some c ->
                    List.iteri
                      (fun k a ->
                        if k < Array.length c.arg_depth then begin
                          let d =
                            min depth_cap
                              (value_depth env ~fname:f.Ir.fname def a)
                          in
                          if d > c.arg_depth.(k) then begin
                            c.arg_depth.(k) <- d;
                            changed := true
                          end;
                          let g = value_gprov env ~fname:f.Ir.fname def a in
                          let nu = gprov_join c.arg_struct.(k) g in
                          if nu <> c.arg_struct.(k) then begin
                            c.arg_struct.(k) <- nu;
                            changed := true
                          end
                        end)
                      args)
            | _ -> ())
          b.Ir.instrs)
      f.Ir.blocks;
    !changed
  in
  (* Tripwire: drop the SCC's depth claims (advice-safe) and keep its
     structure provenance at top. *)
  Callgraph.fixpoint ~top_down:true cg m ~seed:ignore ~step:propagate_from
    ~give_up:(fun f ->
      let c = Hashtbl.find env.ctxs f.Ir.fname in
      Array.fill c.arg_depth 0 (Array.length c.arg_depth) 0;
      Array.fill c.arg_struct 0 (Array.length c.arg_struct) Gtop);
  env

(* ------------------------------------------------------------------ *)
(* Deterministic dump.                                                 *)
(* ------------------------------------------------------------------ *)

let gprov_to_string = function
  | Gbot -> "-"
  | Gtop -> "top"
  | Gsite (f, id) -> Printf.sprintf "%s:%%%d" f id

let fshape_to_string (s : fshape) =
  let ret =
    match s.ret_hops with
    | None -> "-"
    | Some (i, d) -> Printf.sprintf "arg%d+%dhop" i d
  in
  let chases =
    if Array.length s.chases = 0 then "-"
    else
      "["
      ^ String.concat ","
          (Array.to_list (Array.map string_of_int s.chases))
      ^ "]"
  in
  let links =
    if s.links = [] then "-"
    else
      String.concat ","
        (List.map
           (fun (src, dst, fld) ->
             Printf.sprintf "arg%d->arg%d%s" src dst
               (match fld with
               | Some o -> Printf.sprintf "@%d" o
               | None -> "@?"))
           s.links)
  in
  Printf.sprintf "ret=%s chases=%s links=%s" ret chases links

let dump (env : env) (m : Ir.modul) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "shape analysis: %d function(s), depth cap %d\n"
       (List.length m.Ir.funcs) depth_cap);
  List.iter
    (fun (f : Ir.func) ->
      Buffer.add_string buf
        (Printf.sprintf "fn %s/%d:\n" f.Ir.fname f.Ir.nparams);
      (match summary env f.Ir.fname with
      | None -> Buffer.add_string buf "  (no summary)\n"
      | Some s ->
          List.iter
            (fun a ->
              Buffer.add_string buf
                (Printf.sprintf "  alloc %%%-4d @%-12s kind=%-6s links=[%s]%s\n"
                   a.alloc_id a.alloc_block (kind_to_string a.kind)
                   (String.concat ","
                      (List.map string_of_int a.link_offsets))
                   (if a.unknown_link then " +unknown-offset" else "")))
            s.allocs;
          Buffer.add_string buf
            (Printf.sprintf "  summary: %s\n" (fshape_to_string s)));
      match context env f.Ir.fname with
      | None -> ()
      | Some c ->
          if Array.length c.arg_depth > 0 then
            Buffer.add_string buf
              (Printf.sprintf "  ctx: depth=[%s] struct=[%s]\n"
                 (String.concat ","
                    (Array.to_list
                       (Array.map string_of_int c.arg_depth)))
                 (String.concat ","
                    (Array.to_list (Array.map gprov_to_string c.arg_struct)))))
    m.Ir.funcs;
  Buffer.contents buf
