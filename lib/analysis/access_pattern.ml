(* Static access-pattern classification: the analysis that decides, per
   may-heap access site, which side of the hybrid data plane should own
   it.

   Streaming sites walk an affine stride over a loop-invariant base in a
   counted loop (the shape {!Induction.strided_accesses} detects) —
   chunking and prefetching win there, so the guard path keeps them.
   Pointer-chasing sites compute their address through loaded pointers
   (a dereference chain: list/tree traversal, hash-bucket probing) —
   every hop is a dependent miss the guard fast path only taxes, so the
   page-fault path serves them at page granularity instead. Sites
   showing both kinds of evidence are Mixed, sites showing neither are
   Unknown; both default to the guard side, which is always safe (the
   runtime custody check filters untracked pointers dynamically).

   The classification is evidence, not proof: the route pass consumes it
   as advice, and the coverage checker re-proves the resulting split
   structurally (exactly one mechanism per access) without ever
   consulting this module. *)

type cls = Streaming | Pointer_chase | Mixed | Unknown

let cls_to_string = function
  | Streaming -> "streaming"
  | Pointer_chase -> "pointer-chase"
  | Mixed -> "mixed"
  | Unknown -> "unknown"

type site = {
  instr_id : int;
  block : string;
  is_store : bool;
  size : int;  (** bytes per access *)
  cls : cls;
  stride : int option;  (** byte stride when streaming evidence exists *)
  chain_depth : int;  (** loaded-pointer hops in the address chain *)
  shape : string option;
      (** structure kind at the accessed allocation site, when the shape
          analysis resolved one (list/tree/graph/scalar) *)
  density : float;
      (** estimated useful fraction of a fetched line/page at this site:
          [size/|stride|] (capped at 1.0) for streaming, [size/4096] for
          a page-granular fetch at a chasing site, 1.0 otherwise *)
  rationale : string;  (** deterministic one-line evidence summary *)
}

type t = { fname : string; sites : site list (* ascending instr_id *) }

let sites t = t.sites
let site_of t id = List.find_opt (fun s -> s.instr_id = id) t.sites

let page_bytes = 4096

(* How many loaded-pointer hops feed the address computation. Follows
   gep/phi/select/call chains; a [Load] contributes one hop and keeps
   chasing through its own pointer (bounded by [visited] — the
   cur = phi(head, load cur) cycle of a list traversal terminates with
   depth 1). Interprocedural assist: a callee whose summary returns
   [From_arg i] is a pass-through helper, so the chase continues into
   the corresponding argument. *)
let chain_depth_of ?summaries du v =
  let rec go visited v =
    match v with
    | Ir.Const _ | Ir.Constf _ | Ir.Sym _ | Ir.Arg _ -> 0
    | Ir.Reg id -> (
        if List.mem id visited then 0
        else
          let visited = id :: visited in
          match Defuse.def du id with
          | None -> 0
          | Some i -> (
              match i.Ir.kind with
              | Ir.Gep { base; _ } -> go visited base
              | Ir.Load { ptr; is_float = false; _ } -> 1 + go visited ptr
              | Ir.Phi incoming ->
                  List.fold_left
                    (fun acc (_, v) -> max acc (go visited v))
                    0 incoming
              | Ir.Select (_, a, b) -> max (go visited a) (go visited b)
              | Ir.Binop ((Ir.Add | Ir.Sub), a, b) ->
                  max (go visited a) (go visited b)
              | Ir.Call { callee; args } -> (
                  match summaries with
                  | None -> 0
                  | Some env -> (
                      match Summary.lookup env callee with
                      | Some { Summary.ret = Summary.From_arg j; _ } -> (
                          match List.nth_opt args j with
                          | Some a -> go visited a
                          | None -> 0)
                      | _ -> 0))
              | _ -> 0))
  in
  go [] v

let classify_access ?summaries ?shapes du strided_tbl ~fname (b : Ir.block)
    (i : Ir.instr) ~ptr ~size ~is_store =
  let stream = Hashtbl.find_opt strided_tbl i.Ir.id in
  let local_depth = chain_depth_of ?summaries du ptr in
  (* Shape facts see through helpers the local walk cannot: calling
     contexts give arguments their callers' chain depths and callee
     ret_hops continue chains across calls. The local walk is a subset,
     so the shape depth only ever refines Unknown toward Pointer_chase —
     never the other way. *)
  let depth, shape =
    match shapes with
    | None -> (local_depth, None)
    | Some sh ->
        ( max local_depth (Shape.value_depth sh ~fname (Defuse.def du) ptr),
          Option.map Shape.kind_to_string
            (Shape.value_kind sh ~fname (Defuse.def du) ptr) )
  in
  let via_helpers = depth > local_depth in
  let cls, rationale =
    match (stream, depth) with
    | Some (sa : Induction.strided_access), 0 ->
        ( Streaming,
          Printf.sprintf "affine stride %dB via iv %%%d (step %d) in loop @%s"
            sa.Induction.byte_stride sa.Induction.iv.Induction.phi_id
            sa.Induction.iv.Induction.step sa.Induction.iv.Induction.header )
    | Some sa, _ ->
        ( Mixed,
          Printf.sprintf
            "stride %dB in loop @%s but address chains through %d loaded \
             pointer%s%s"
            sa.Induction.byte_stride sa.Induction.iv.Induction.header depth
            (if depth = 1 then "" else "s")
            (if via_helpers then " (shape: through helpers)" else "") )
    | None, d when d > 0 ->
        ( Pointer_chase,
          Printf.sprintf "address chains through %d loaded pointer%s%s" d
            (if d = 1 then "" else "s")
            (if via_helpers then " (shape: through helpers)" else "") )
    | None, _ -> (Unknown, "no loop stride, no loaded-pointer chain")
  in
  let stride =
    match stream with
    | Some sa -> Some sa.Induction.byte_stride
    | None -> None
  in
  let density =
    match (cls, stride) with
    | Streaming, Some st when st <> 0 ->
        min 1.0 (float_of_int size /. float_of_int (abs st))
    | (Pointer_chase | Mixed), _ ->
        float_of_int size /. float_of_int page_bytes
    | _ -> 1.0
  in
  {
    instr_id = i.Ir.id;
    block = b.Ir.label;
    is_store;
    size;
    cls;
    stride;
    chain_depth = depth;
    shape;
    density;
    rationale;
  }

let analyze ?summaries ?shapes ind =
  let f = Induction.func ind in
  let alias = Alias.analyze ?summaries f in
  let du = Induction.du ind in
  (* One table of every strided access in the function, keyed by the
     access instruction (strided_accesses reports only the innermost
     loop's own accesses, so ids never collide across loops). *)
  let strided_tbl = Hashtbl.create 64 in
  List.iter
    (fun loop ->
      List.iter
        (fun (sa : Induction.strided_access) ->
          if sa.Induction.byte_stride <> 0 then
            Hashtbl.replace strided_tbl sa.Induction.instr_id sa)
        (Induction.strided_accesses ind loop))
    (Loops.loops (Induction.loops ind));
  let sites = ref [] in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          match i.Ir.kind with
          | Ir.Load { ptr; size; _ } when Alias.needs_guard alias ptr ->
              sites :=
                classify_access ?summaries ?shapes du strided_tbl
                  ~fname:f.Ir.fname b i ~ptr ~size ~is_store:false
                :: !sites
          | Ir.Store { ptr; size; _ } when Alias.needs_guard alias ptr ->
              sites :=
                classify_access ?summaries ?shapes du strided_tbl
                  ~fname:f.Ir.fname b i ~ptr ~size ~is_store:true
                :: !sites
          | _ -> ())
        b.Ir.instrs)
    f.Ir.blocks;
  {
    fname = f.Ir.fname;
    sites =
      List.sort (fun a b -> compare a.instr_id b.instr_id) !sites;
  }

(* Deterministic dump, one line per site in ascending instruction order:
   the `classify` CLI subcommand prints this and CI byte-compares two
   runs of it. *)
let dump (t : t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "access-pattern %s: %d may-heap site(s)\n" t.fname
       (List.length t.sites));
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf
           "  %%%-4d %-5s %dB @%-12s %-13s stride=%-6s chain=%d \
            shape=%-6s density=%.4f  [%s]\n"
           s.instr_id
           (if s.is_store then "store" else "load")
           s.size s.block (cls_to_string s.cls)
           (match s.stride with
           | Some st -> string_of_int st
           | None -> "-")
           s.chain_depth
           (match s.shape with Some k -> k | None -> "-")
           s.density s.rationale))
    t.sites;
  Buffer.contents buf
