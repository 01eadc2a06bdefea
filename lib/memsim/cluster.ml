(* N-node replicated remote-memory tier.

   Each node shadows a slice of the authoritative [Memstore.t] (the
   "main" store workloads compute against): a writeback copies the
   object's bytes into the replica set's node stores, a localization
   copies them back. Data loss therefore becomes *observable*: when a
   crash schedule wipes every replica of an object, the fetch zeroes the
   object's bytes in the main store and the workload's checksum comes
   out wrong — exactly what the durability experiment asserts.

   All time is {!Clock.monotonic}: [!bench_begin] resets [Clock.cycles]
   to isolate the measured region, and the crash schedule and
   replication timestamps must not jump backward across that boundary.

   Determinism: crash windows are a pure function of (seed, node,
   index); corruption draws are a pure function of (seed, node, the
   node's fetch sequence number). No wall clock, no global RNG. *)

type copy = {
  version : int;
  written_at : int;  (* when the bytes landed on the node (monotonic) *)
  applied_at : int;  (* visible for reads from this time on; > written_at
                        for lagged (beyond-ack) replicas *)
}

type entry = {
  mutable version : int;
  mutable checksum : int;
  mutable size : int;
}

type node = {
  store : Memstore.t;
  copies : (int, copy) Hashtbl.t;
  (* Index of the newest crash window already processed (wiped) /
     already recovered from; -1 initially. *)
  mutable crash_seen : int;
  mutable recovery_seen : int;
  mutable recovering : bool;
  mutable pending : int list;  (* keys awaiting re-replication *)
  mutable fetch_seq : int;  (* corruption-draw sequence number *)
}

type event =
  | Node_crashed of { node : int; at : int; until : int; lost : int }
  | Node_recovered of { node : int; at : int; missing : int }

type wb = { written : int; lagged : int; skipped : int }

type t = {
  clock : Clock.t;
  main : Memstore.t;
  nodes : node array;
  ack : int;
  seed : int;
  crash_period : int;
  crash_downtime : int;
  corrupt : float;
  directory : (int, entry) Hashtbl.t;
  mutable on_event : event -> unit;
}

let replica_lag_cycles = 64_000

let fresh_node () =
  {
    store = Memstore.create ();
    copies = Hashtbl.create 64;
    crash_seen = -1;
    recovery_seen = -1;
    recovering = false;
    pending = [];
    fetch_seq = 0;
  }

let create ?(seed = 1) ~clock ~store ~replicas ~ack ~crash_period
    ~crash_downtime ~corrupt () =
  if replicas < 1 || replicas > 8 then
    invalid_arg "Cluster.create: replicas must be in 1..8";
  if ack < 1 || ack > replicas then
    invalid_arg "Cluster.create: ack must be in 1..replicas";
  if crash_period < 0 || crash_downtime < 0 then
    invalid_arg "Cluster.create: negative crash parameter";
  if crash_period > 0 && crash_downtime <= 0 then
    invalid_arg "Cluster.create: crash downtime must be > 0";
  if crash_period > 0 && crash_downtime >= crash_period then
    invalid_arg "Cluster.create: crash downtime must be < crash period";
  if corrupt < 0.0 || corrupt >= 1.0 then
    invalid_arg "Cluster.create: corrupt rate must be in [0, 1)";
  {
    clock;
    main = store;
    nodes = Array.init replicas (fun _ -> fresh_node ());
    ack;
    seed = max 1 seed;
    crash_period;
    crash_downtime;
    corrupt;
    directory = Hashtbl.create 256;
    on_event = (fun _ -> ());
  }

let create_opt ?seed ~clock ~store ~replicas ~ack ~(faults : Faults.config) ()
    =
  (* The zero-cost guarantee: a single node with no crash/corrupt faults
     is exactly the pre-replication model, so no cluster is built at all
     and every op takes the original code path bit for bit. *)
  if replicas = 1 && faults.Faults.crash_period = 0 && faults.corrupt = 0.0
  then None
  else
    Some
      (create ?seed ~clock ~store ~replicas ~ack
         ~crash_period:faults.crash_period
         ~crash_downtime:faults.crash_downtime ~corrupt:faults.corrupt ())

let set_on_event t f = t.on_event <- f
let replicas t = Array.length t.nodes
let ack t = t.ack
let now t = Clock.monotonic t.clock
let has_object t ~key = Hashtbl.mem t.directory key

(* splitmix64-style finalizer (63-bit), same shape as Faults.hash2 *)
let mix x =
  let x = x lxor (x lsr 30) in
  let x = x * 0xBF58476D land max_int in
  let x = x lxor (x lsr 27) in
  let x = x * 0x94D049BB land max_int in
  x lxor (x lsr 31)

let hash3 seed n i =
  mix ((seed * 0x9E3779B9) + (n * 0xC2B2AE35) + (i * 0x85EBCA6B) + 0x94D049BB)

let primary t ~key = mix key mod Array.length t.nodes

(* -- byte movement -------------------------------------------------------

   Objects are 8-byte aligned in every backend (object sizes and the
   page size are multiples of 8), but keep a byte tail for safety. *)

(* All movement uses the exact 64-bit accessors: [Memstore.load ~size:8]
   truncates to 63 bits and would clear the top bit of every copied word
   (the sign bit of negative doubles). *)

let copy_range ~src ~dst ~addr ~len =
  let words = len / 8 in
  for k = 0 to words - 1 do
    Memstore.store64 dst ~addr:(addr + (8 * k))
      (Memstore.load64 src ~addr:(addr + (8 * k)))
  done;
  for k = 8 * words to len - 1 do
    Memstore.store dst ~addr:(addr + k) ~size:1
      (Memstore.load src ~addr:(addr + k) ~size:1)
  done

let zero_range store ~addr ~len =
  let words = len / 8 in
  for k = 0 to words - 1 do
    Memstore.store64 store ~addr:(addr + (8 * k)) 0L
  done;
  for k = 8 * words to len - 1 do
    Memstore.store store ~addr:(addr + k) ~size:1 0
  done

let checksum_range store ~addr ~len =
  (* FNV-1a-flavoured fold over 8-byte words, truncated to 63 bits at
     the end. *)
  let h = ref 0x15051505L in
  let words = len / 8 in
  for k = 0 to words - 1 do
    let w = Memstore.load64 store ~addr:(addr + (8 * k)) in
    h := Int64.mul (Int64.logxor !h w) 0x100000001B3L
  done;
  for k = 8 * words to len - 1 do
    let b = Memstore.load store ~addr:(addr + k) ~size:1 in
    h := Int64.mul (Int64.logxor !h (Int64.of_int b)) 0x100000001B3L
  done;
  Int64.to_int !h land max_int

(* -- crash schedule ------------------------------------------------------

   Window [i] of node [n] is anchored at [(i+1)*period] plus a per-node
   phase stagger ([n*period/N], so an N-node cluster never loses all
   replicas to one synchronized blast) and a deterministic jitter of up
   to +/- period/32 hashed from (seed, n, i). Pure in (seed, n, i): no
   mutable cursor to desynchronize. *)

let window t n i =
  let p = t.crash_period in
  let phase = n * p / Array.length t.nodes in
  let span = max 1 (p / 16) in
  let jitter = (hash3 t.seed n i mod span) - (span / 2) in
  let start = ((i + 1) * p) + phase + jitter in
  (start, start + t.crash_downtime)

let crash_window t ~node i =
  if t.crash_period <= 0 || i < 0 then None else Some (window t node i)

(* Newest window index whose start is <= now; -1 if none has started.
   Starts are strictly increasing in i (jitter << period), so scanning
   down from now/period finds it within a few probes. *)
let newest_started t n ~now =
  if t.crash_period <= 0 then -1
  else begin
    let rec find i =
      if i < 0 then -1
      else
        let start, _ = window t n i in
        if start <= now then i else find (i - 1)
    in
    find (now / t.crash_period)
  end

let up_after_process t n ~now =
  t.crash_period <= 0
  ||
  let node = t.nodes.(n) in
  node.crash_seen < 0
  ||
  let _, stop = window t n node.crash_seen in
  now >= stop

(* Lazy processing: bring node [n]'s crash bookkeeping up to [now].
   Wiping with cutoff [written_at < stop] of the newest started window
   is exact: no copy can be written while the node is down, so every
   copy written before [stop] was written before [start] of some
   unprocessed window and died with the node; copies written at or
   after [stop] postdate the recovery and survive. *)
let process_node t n ~now =
  if t.crash_period > 0 then begin
    let node = t.nodes.(n) in
    let newest = newest_started t n ~now in
    if newest > node.crash_seen then begin
      let _, stop = window t n newest in
      let doomed =
        Hashtbl.fold
          (fun k c acc -> if c.written_at < stop then k :: acc else acc)
          node.copies []
      in
      List.iter (Hashtbl.remove node.copies) doomed;
      for i = node.crash_seen + 1 to newest do
        let start, stop = window t n i in
        Clock.count t.clock "cluster.crashes" 1;
        t.on_event
          (Node_crashed
             {
               node = n;
               at = start;
               until = stop;
               lost = (if i = newest then List.length doomed else 0);
             })
      done;
      node.crash_seen <- newest
    end;
    if node.crash_seen >= 0 && node.recovery_seen < node.crash_seen then begin
      let _, stop = window t n node.crash_seen in
      if now >= stop then begin
        node.recovery_seen <- node.crash_seen;
        (* A single-node "cluster" has no peer to resync from. *)
        let missing =
          if Array.length t.nodes = 1 then []
          else
            Hashtbl.fold
              (fun k e acc ->
                match Hashtbl.find_opt node.copies k with
                | Some c when c.version = e.version -> acc
                | _ -> k :: acc)
              t.directory []
            |> List.sort compare
        in
        node.pending <- missing;
        node.recovering <- missing <> [];
        Clock.count t.clock "cluster.recoveries" 1;
        t.on_event
          (Node_recovered { node = n; at = stop; missing = List.length missing })
      end
    end
  end

let sync t ~now =
  for n = 0 to Array.length t.nodes - 1 do
    process_node t n ~now
  done

let node_state t n =
  let now = now t in
  sync t ~now;
  if not (up_after_process t n ~now) then `Down
  else if t.nodes.(n).recovering then `Recovering
  else `Up

(* -- replica-aware writeback -------------------------------------------- *)

let writeback t ~key ~size =
  let now = now t in
  sync t ~now;
  let e =
    match Hashtbl.find_opt t.directory key with
    | Some e ->
        e.version <- e.version + 1;
        e.size <- size;
        e
    | None ->
        let e = { version = 1; checksum = 0; size } in
        Hashtbl.replace t.directory key e;
        e
  in
  e.checksum <- checksum_range t.main ~addr:key ~len:size;
  let p = primary t ~key in
  let nn = Array.length t.nodes in
  let written = ref 0 and lagged = ref 0 and skipped = ref 0 in
  for j = 0 to nn - 1 do
    let n = (p + j) mod nn in
    if up_after_process t n ~now then begin
      let node = t.nodes.(n) in
      copy_range ~src:t.main ~dst:node.store ~addr:key ~len:size;
      (* The first [ack] healthy replicas are synchronous; the rest lag
         by a couple of round trips and are invisible to reads until
         applied. A node crash inside that lag window loses the copy. *)
      let applied_at =
        if !written < t.ack then now else now + replica_lag_cycles
      in
      Hashtbl.replace node.copies key
        { version = e.version; written_at = now; applied_at };
      incr written;
      if applied_at > now then incr lagged
    end
    else incr skipped
  done;
  { written = !written; lagged = !lagged; skipped = !skipped }

(* -- reads, failover sources, loss --------------------------------------- *)

let read_candidates t ~key =
  let now = now t in
  sync t ~now;
  match Hashtbl.find_opt t.directory key with
  | None -> []
  | Some e ->
      let p = primary t ~key in
      let nn = Array.length t.nodes in
      let acc = ref [] in
      for j = nn - 1 downto 0 do
        let n = (p + j) mod nn in
        if up_after_process t n ~now then
          match Hashtbl.find_opt t.nodes.(n).copies key with
          | Some c when c.version = e.version && c.applied_at <= now ->
              acc := n :: !acc
          | _ -> ()
      done;
      !acc

let earliest_pending t ~key =
  let now = now t in
  sync t ~now;
  match Hashtbl.find_opt t.directory key with
  | None -> None
  | Some e ->
      let best = ref None in
      Array.iteri
        (fun n node ->
          if up_after_process t n ~now then
            match Hashtbl.find_opt node.copies key with
            | Some c when c.version = e.version && c.applied_at > now ->
                best :=
                  Some
                    (match !best with
                    | None -> c.applied_at
                    | Some b -> min b c.applied_at)
            | _ -> ())
        t.nodes;
      !best

(* While an object is remote every tracked access faults first, so the
   main store still holds exactly the bytes of the last writeback and
   [e.checksum] matches. A mismatch means the range was rewritten behind
   the memory system's back (allocator reuse after free, realloc's
   direct blit, blob loads): the replicas are stale for the new logical
   object and must be invalidated, never served. *)
let main_matches t e ~key =
  checksum_range t.main ~addr:key ~len:e.size = e.checksum

let invalidate t ~key =
  Hashtbl.remove t.directory key;
  Array.iter (fun node -> Hashtbl.remove node.copies key) t.nodes

let deliver t ~key ~node =
  match Hashtbl.find_opt t.directory key with
  | None ->
      (* The object vanished between the caller's [has_object] check and
         now: a crash window crossed mid-fetch (retry stalls advance the
         clock) lost the last copy. The loss was already declared and
         the main-store bytes zeroed; nothing to copy. *)
      `Lost
  | Some e ->
      if main_matches t e ~key then begin
        copy_range ~src:t.nodes.(node).store ~dst:t.main ~addr:key ~len:e.size;
        `Delivered
      end
      else begin
        invalidate t ~key;
        `Stale
      end

let declare_lost t ~key =
  match Hashtbl.find_opt t.directory key with
  | None -> `Stale
  | Some e ->
      if main_matches t e ~key then begin
        (* The object is gone from every replica: make the loss visible
           to the workload by zeroing its bytes in the main store. *)
        zero_range t.main ~addr:key ~len:e.size;
        invalidate t ~key;
        `Lost
      end
      else begin
        (* Only a stale shadow of a freed/rewritten range died; the
           current bytes live in main and nothing was lost. *)
        invalidate t ~key;
        `Stale
      end

let corrupt_draw t ~node =
  if t.corrupt <= 0.0 then false
  else begin
    let nd = t.nodes.(node) in
    nd.fetch_seq <- nd.fetch_seq + 1;
    let h = hash3 (t.seed lxor 0x3243F6A8) node nd.fetch_seq in
    float_of_int (h land 0xFFFFFF) /. 16777216.0 < t.corrupt
  end

(* -- recovery resync ------------------------------------------------------ *)

let find_holder t ~key ~version ~not_node ~now =
  let nn = Array.length t.nodes in
  let rec go j =
    if j >= nn then None
    else if j <> not_node && up_after_process t j ~now then
      match Hashtbl.find_opt t.nodes.(j).copies key with
      | Some c when c.version = version && c.applied_at <= now -> Some j
      | _ -> go (j + 1)
    else go (j + 1)
  in
  go 0

let resync_step t ~budget =
  let now = now t in
  sync t ~now;
  let moved = ref 0 in
  Array.iteri
    (fun n node ->
      if node.recovering && up_after_process t n ~now then begin
        let rec drain () =
          if !moved < budget then
            match node.pending with
            | [] -> ()
            | key :: rest -> (
                node.pending <- rest;
                match Hashtbl.find_opt t.directory key with
                | None -> drain () (* object lost or freed meanwhile *)
                | Some e -> (
                    match Hashtbl.find_opt node.copies key with
                    | Some c when c.version = e.version ->
                        drain () (* re-written since; already current *)
                    | _ -> (
                        match
                          find_holder t ~key ~version:e.version ~not_node:n
                            ~now
                        with
                        | Some h ->
                            copy_range ~src:t.nodes.(h).store ~dst:node.store
                              ~addr:key ~len:e.size;
                            Hashtbl.replace node.copies key
                              {
                                version = e.version;
                                written_at = now;
                                applied_at = now;
                              };
                            incr moved;
                            drain ()
                        | None ->
                            (* no healthy source right now: requeue and
                               let a later step retry *)
                            node.pending <- key :: node.pending)))
        in
        drain ();
        if node.pending = [] then node.recovering <- false
      end)
    t.nodes;
  !moved

let resync_backlog t =
  Array.fold_left (fun acc node -> acc + List.length node.pending) 0 t.nodes
