(* Canonical table of the runtime-ABI calls the passes emit and the
   interpreter backends dispatch on. Everything that needs to know what a
   callee name *means* for custody — the guard injector, the chunk
   transform, the structural verifier, and the static guard-coverage
   checker — reads this table instead of repeating string literals. *)

let guard_read = "tfm_guard_read"
let guard_write = "tfm_guard_write"
let chunk_init = "!tfm_chunk_init"
let chunk_access_read = "tfm_chunk_access_read"
let chunk_access_write = "tfm_chunk_access_write"
let chunk_end = "!tfm_chunk_end"
let page_read = "tfm_page_read"
let page_write = "tfm_page_write"

type effect_ =
  | Guard of { write : bool }
  | Chunk_access of { write : bool }
  | Chunk_end
  | Page of { write : bool }
  | Alloc
  | Free
  | Neutral
  | Unknown

(* Custody semantics of a callee name.

   [Guard]/[Chunk_access] establish custody of the bytes they name: after
   the call returns, the object(s) under [ptr .. ptr+size) are local and —
   per the AIFM dereference-scope contract the runtime mirrors (see
   lib/aifm/scope.mli) — stay resident until a release point.  [Chunk_end]
   is such a release point for the chunk protocol's pins.  [Alloc]/[Free]
   and any call we cannot see into ([Unknown]) may trigger eviction or
   invalidate pointers outright, so they end custody of everything.
   [Neutral] covers the simulator bookkeeping intrinsics that neither
   touch the evacuator nor free memory. *)
let classify = function
  | "tfm_guard_read" -> Guard { write = false }
  | "tfm_guard_write" -> Guard { write = true }
  | "tfm_chunk_access_read" -> Chunk_access { write = false }
  | "tfm_chunk_access_write" -> Chunk_access { write = true }
  | "!tfm_chunk_end" -> Chunk_end
  | "tfm_page_read" -> Page { write = false }
  | "tfm_page_write" -> Page { write = true }
  | "malloc" | "calloc" | "realloc" | "tfm_malloc" | "tfm_calloc"
  | "tfm_realloc" ->
      Alloc
  | "free" | "tfm_free" -> Free
  | name when String.length name > 0 && name.[0] = '!' ->
      (* !tfm_init, !tfm_chunk_init, !bench_begin, !cpu_work, !load_blob,
         !op_begin, !op_end: simulator/bookkeeping hooks that never
         evict. *)
      Neutral
  | _ -> Unknown

let is_guard name =
  match classify name with Guard _ -> true | _ -> false

let is_custody_source name =
  match classify name with Guard _ | Chunk_access _ -> true | _ -> false

(* Argument layout for custody sources: (ptr position, size position). *)
let custody_args name =
  match classify name with
  | Guard _ -> Some (0, 1)
  | Chunk_access _ -> Some (1, 2)
  | _ -> None

let is_page name =
  match classify name with Page _ -> true | _ -> false

(* A paged access is synchronously materialized (the fault handler
   returns with the page resident) but establishes no custody: nothing
   pins the page, so the very next access to the same bytes may fault
   again. Custody facts therefore neither start nor end here. *)
let clobbers_custody name =
  match classify name with
  | Alloc | Free | Unknown -> true
  | Guard _ | Chunk_access _ | Chunk_end | Page _ | Neutral -> false

(* Structural well-formedness of an intrinsic call site; [None] when the
   shape is valid or the callee is not one of ours. The pointer operand
   must be pointer-typed (a float constant can never be an address) and
   sizes/handles must be positive compile-time constants — the passes
   only ever emit that shape, so anything else is a malformed transform,
   caught here rather than as a runtime surprise. *)
let check_call ~callee ~args =
  let err fmt = Format.kasprintf (fun s -> Some s) fmt in
  let pointerish = function Ir.Constf _ -> false | _ -> true in
  let const_at least v =
    match v with Ir.Const n when n >= least -> true | _ -> false
  in
  match classify callee with
  | Guard _ | Page _ -> begin
      match args with
      | [ ptr; size ] ->
          if not (pointerish ptr) then
            err "%s: pointer operand is a float constant" callee
          else if not (const_at 1 size) then
            err "%s: size operand must be a positive constant" callee
          else None
      | _ -> err "%s: expected 2 arguments, got %d" callee (List.length args)
    end
  | Chunk_access _ -> begin
      match args with
      | [ handle; ptr; size ] ->
          if not (const_at 0 handle) then
            err "%s: handle operand must be a constant" callee
          else if not (pointerish ptr) then
            err "%s: pointer operand is a float constant" callee
          else if not (const_at 1 size) then
            err "%s: size operand must be a positive constant" callee
          else None
      | _ -> err "%s: expected 3 arguments, got %d" callee (List.length args)
    end
  | Chunk_end -> begin
      match args with
      | [ handle ] ->
          if const_at 0 handle then None
          else err "%s: handle operand must be a constant" callee
      | _ -> err "%s: expected 1 argument, got %d" callee (List.length args)
    end
  | Alloc | Free | Neutral | Unknown -> None
