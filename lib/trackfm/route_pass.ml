(* The hybrid data plane's routing pass: per-site choice between the
   guard path and the page-fault path, driven by the static
   access-pattern classification (and optionally refined by a telemetry
   hotspot profile).

   Pointer-chasing sites are moved to the page path: their dependent
   misses defeat chunking and prefetching, so the guard fast path is
   pure overhead there, while page-granular faulting amortizes each miss
   over whatever locality the structure has. Streaming sites keep their
   guards — chunked transfers and compiler-directed prefetch beat
   page-granular faulting on affine strides (Fig 15). Mixed/Unknown
   sites default to the guard side (always safe: the runtime custody
   check filters untracked pointers dynamically); profile refinement may
   upgrade them to the page path when the hotspot table shows the site
   is slow-path dominated, but never demotes a chasing site back.

   Mechanically a routed access's private guard call is rewritten in
   place into a page call (same instruction id, same operands), so the
   access stays adjacent to its protection and witness ids stay stable.
   Every rewrite is pre-checked against the custody dataflow — the
   access must not be covered by any *other* fact, or retiring the guard
   would double-protect (the checker would catch it, but we prove
   exactly-one by construction) — and leaves a routing witness record
   that {!Tfm_checker.Coverage.check} re-proves structurally,
   independent of the classifier. *)

module C = Tfm_checker.Coverage
module F = Tfm_checker.Facts
module AP = Tfm_analysis.Access_pattern

type mode = [ `Off | `Static | `Profiled ]

let mode_to_string = function
  | `Off -> "off"
  | `Static -> "static"
  | `Profiled -> "profiled"

type report = {
  routed : int;  (** sites moved to the page path *)
  kept_pinned : int;  (** chasing sites kept: guard pinned by a witness *)
  kept_covered : int;  (** chasing sites kept: covered by another fact *)
  upgraded : int;  (** Mixed/Unknown sites routed by profile evidence *)
  classes : (string * AP.site) list;
      (** full per-function classification, function order then
          ascending instruction id — the hotspot `class` column and the
          `shape --shadow` audit read this; the `classify` dump
          classifies the untransformed module itself *)
  routes : (string * C.routing) list;
      (** per-function witness records for every rewrite *)
  site_calls : ((string * int) * int) list;
      (** (function, protecting call id) -> access id, for every
          classified site with an adjacent private guard/page call —
          telemetry keys hotspot rows by the call, the classification by
          the access; this is the bridge *)
  alloc_shapes : ((string * int) * string) list;
      (** (function, allocation call id) -> structure kind, for every
          allocation site the shape analysis resolved as recursive —
          the provenance hints the telemetry hotspot table records as
          groundwork for placement (ROADMAP item 5) *)
}

let empty =
  {
    routed = 0;
    kept_pinned = 0;
    kept_covered = 0;
    upgraded = 0;
    classes = [];
    routes = [];
    site_calls = [];
    alloc_shapes = [];
  }

(* Class of a site for the hotspot table, by access instruction id. *)
let class_of_site report ~func ~instr =
  List.find_map
    (fun (fname, (s : AP.site)) ->
      if fname = func && s.AP.instr_id = instr then Some s.AP.cls else None)
    report.classes

let class_of_call report ~func ~instr =
  match List.assoc_opt (func, instr) report.site_calls with
  | Some access -> class_of_site report ~func ~instr:access
  | None -> None

(* Structure kind of an allocation call, for the hotspot table's class
   column (alloc rows have no access-pattern class; the shape verdict is
   the provenance hint that stands in). *)
let shape_of_alloc report ~func ~instr =
  List.assoc_opt (func, instr) report.alloc_shapes

let run ?summaries ?shapes ?(pinned = []) ?(hotspots = []) ~mode
    (m : Ir.modul) =
  match mode with
  | `Off -> empty
  | (`Static | `Profiled) as mode ->
      let routed = ref 0 in
      let kept_pinned = ref 0 in
      let kept_covered = ref 0 in
      let upgraded = ref 0 in
      let classes = ref [] in
      let routes = ref [] in
      let site_calls = ref [] in
      let hot = Hashtbl.create 16 in
      List.iter (fun (f, i) -> Hashtbl.replace hot (f, i) ()) hotspots;
      (* Guards pinned as witnesses of other accesses' elisions must stay
         guards: rewriting one would orphan the elision witness it
         anchors. The pipeline hands us every witness id from the elision
         records. *)
      let pin = Hashtbl.create 16 in
      List.iter (fun (f, i) -> Hashtbl.replace pin (f, i) ()) pinned;
      List.iter
        (fun (f : Ir.func) ->
          (* One structure for the classifier and the custody dataflow:
             nothing changes the function until the decisions are made. *)
          let ind = Tfm_analysis.Induction.analyze f in
          let ap = AP.analyze ?summaries ?shapes ind in
          List.iter
            (fun s -> classes := (f.Ir.fname, s) :: !classes)
            (AP.sites ap);
          let facts = F.analyze ?summaries ind in
          let decisions = ref [] in
          (* One access: decide whether its private guard becomes a page
             call. [prev] is the textually preceding instruction — the
             guard-pass shape puts the private guard exactly there. *)
          let consider b state prev (i : Ir.instr) ~ptr ~size ~is_store =
            match AP.site_of ap i.Ir.id with
            | None -> ()
            | Some site ->
                let hot_here g_id =
                  Hashtbl.mem hot (f.Ir.fname, i.Ir.id)
                  || Hashtbl.mem hot (f.Ir.fname, g_id)
                in
                let private_guard =
                  match prev with
                  | Some (g : Ir.instr) -> begin
                      match g.Ir.kind with
                      | Ir.Call { callee; args = [ gptr; gsz ] }
                        when Intrinsics.is_guard callee && gptr = ptr -> begin
                          match Intrinsics.classify callee with
                          | Intrinsics.Guard { write } ->
                              Some (g, write, gptr, gsz)
                          | _ -> None
                        end
                      | _ -> None
                    end
                  | None -> None
                in
                (match private_guard with
                | Some (g, _, _, _) ->
                    (* Rewrites keep the call's instr id, so this keyed
                       mapping survives routing. *)
                    site_calls :=
                      ((f.Ir.fname, g.Ir.id), i.Ir.id) :: !site_calls
                | None -> ());
                let wants_page g_id =
                  match site.AP.cls with
                  | AP.Pointer_chase -> true
                  | AP.Mixed | AP.Unknown ->
                      mode = `Profiled && hot_here g_id
                  | AP.Streaming -> false
                in
                (match private_guard with
                | Some (g, write, gptr, gsz) when wants_page g.Ir.id ->
                    if Hashtbl.mem pin (f.Ir.fname, g.Ir.id) then
                      incr kept_pinned
                    else begin
                      (* Retiring this guard is only legal if nothing
                         else covers the access: query the dataflow with
                         the guard's own fact masked out — exactly-one
                         by construction, before the checker re-proves
                         it. *)
                      let covered_by_other =
                        F.query facts state ~block:b ptr ~size
                          ~write:is_store
                          ~alive:(fun w -> w <> g.Ir.id)
                        <> None
                      in
                      if covered_by_other then incr kept_covered
                      else
                        decisions :=
                          (g, write, gptr, gsz, i.Ir.id, site.AP.cls)
                          :: !decisions
                    end
                | _ -> ())
          in
          List.iter
            (fun (b : Ir.block) ->
              let state = ref (F.in_state facts b.Ir.label) in
              let prev = ref None in
              List.iter
                (fun (i : Ir.instr) ->
                  (match i.Ir.kind with
                  | Ir.Load { ptr; size; _ } ->
                      consider b.Ir.label !state !prev i ~ptr ~size
                        ~is_store:false
                  | Ir.Store { ptr; size; _ } ->
                      consider b.Ir.label !state !prev i ~ptr ~size
                        ~is_store:true
                  | _ -> ());
                  state := F.apply_instr facts !state i;
                  prev := Some i)
                b.Ir.instrs)
            f.Ir.blocks;
          List.iter
            (fun ((g : Ir.instr), write, gptr, gsz, access_id, cls) ->
              g.Ir.kind <-
                Ir.Call
                  {
                    callee =
                      (if write then Intrinsics.page_write
                       else Intrinsics.page_read);
                    args = [ gptr; gsz ];
                  };
              incr routed;
              (match cls with
              | AP.Mixed | AP.Unknown -> incr upgraded
              | _ -> ());
              routes :=
                ( f.Ir.fname,
                  {
                    C.routed_access = access_id;
                    page_call = g.Ir.id;
                    cls = AP.cls_to_string cls;
                  } )
                :: !routes)
            (List.rev !decisions))
        m.Ir.funcs;
      let alloc_shapes =
        match shapes with
        | None -> []
        | Some sh ->
            List.concat_map
              (fun (f : Ir.func) ->
                match Tfm_analysis.Shape.summary sh f.Ir.fname with
                | None -> []
                | Some s ->
                    List.filter_map
                      (fun (a : Tfm_analysis.Shape.alloc_site) ->
                        if Tfm_analysis.Shape.kind_is_recursive a.kind then
                          Some
                            ( (f.Ir.fname, a.alloc_id),
                              Tfm_analysis.Shape.kind_to_string a.kind )
                        else None)
                      s.Tfm_analysis.Shape.allocs)
              m.Ir.funcs
      in
      {
        routed = !routed;
        kept_pinned = !kept_pinned;
        kept_covered = !kept_covered;
        upgraded = !upgraded;
        classes = List.rev !classes;
        routes = List.rev !routes;
        site_calls = List.rev !site_calls;
        alloc_shapes;
      }
