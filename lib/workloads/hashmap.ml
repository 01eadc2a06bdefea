type params = { keys : int; lookups : int; skew : float; seed : int }

let default_params ~keys ~lookups = { keys; lookups; skew = 1.02; seed = 42 }

let checksum_mask = 0x3FFFFFFF

let round_pow2 n =
  let c = ref 1 in
  while !c < n do
    c := !c * 2
  done;
  !c

let slots p = round_pow2 (2 * p.keys)

(* Multiplicative (Fibonacci) hashing; both the IR program and the
   reference use exactly this, so probe sequences are identical. The
   multiplier is reduced mod 2^62 to stay within OCaml's int while giving
   identical wrapped products in IR and host code. *)
let hash_mult = 0x2545F4914F6CDD1D land max_int

let value_of_key key = (key * 31) land 0xFFFF

let trace_blob p =
  let rng = Tfm_util.Rng.create p.seed in
  let z = Tfm_util.Zipf.create ~n:p.keys ~skew:p.skew in
  let bytes = Bytes.create (p.lookups * 4) in
  for j = 0 to p.lookups - 1 do
    let key = Tfm_util.Zipf.sample z rng in
    Bytes.set_int32_le bytes (j * 4) (Int32.of_int key)
  done;
  bytes

let working_set_bytes p = (slots p * 8) + (p.lookups * 4)
let op_classes = [ (0, "lookup") ]

(* Table layout: 8 bytes per slot: key+1 in the low 4 bytes (0 = empty),
   value in the high 4 bytes. *)
let build p () =
  let nslots = slots p in
  let mask = nslots - 1 in
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let table = Builder.call b "malloc" [ Ir.Const (nslots * 8) ] in
  let trace = Builder.call b "malloc" [ Ir.Const (p.lookups * 4) ] in
  ignore (Builder.call b "!load_blob" [ trace; Ir.Const 0 ]);
  (* Populate: insert keys 0..keys-1 with linear probing. *)
  Builder.for_loop b ~hint:"fill" ~init:(Ir.Const 0) ~bound:(Ir.Const p.keys)
    (fun b key ->
      let h =
        Builder.binop b Ir.And
          (Builder.mul b key (Ir.Const hash_mult))
          (Ir.Const mask)
      in
      (* Probe for the first empty slot. *)
      let final =
        Builder.while_loop_acc b ~hint:"probe_ins" ~accs:[ h ]
          ~cond:(fun b ~accs ->
            let slot = match accs with [ s ] -> s | _ -> assert false in
            let kptr = Builder.gep b table ~index:slot ~scale:8 () in
            let stored = Builder.load b ~size:4 kptr in
            Builder.icmp b Ir.Ne stored (Ir.Const 0))
          (fun b ~accs ->
            let slot = match accs with [ s ] -> s | _ -> assert false in
            [ Builder.binop b Ir.And
                (Builder.add b slot (Ir.Const 1))
                (Ir.Const mask) ])
      in
      let slot = match final with [ s ] -> s | _ -> assert false in
      let kptr = Builder.gep b table ~index:slot ~scale:8 () in
      Builder.store b ~size:4 (Builder.add b key (Ir.Const 1)) ~ptr:kptr;
      let vptr = Builder.gep b table ~index:slot ~scale:8 ~offset:4 () in
      let v =
        Builder.binop b Ir.And
          (Builder.mul b key (Ir.Const 31))
          (Ir.Const 0xFFFF)
      in
      Builder.store b ~size:4 v ~ptr:vptr);
  ignore (Builder.call b "!bench_begin" []);
  (* Lookup phase: the measured workload. *)
  let accs =
    Builder.for_loop_acc b ~hint:"get" ~init:(Ir.Const 0)
      ~bound:(Ir.Const p.lookups) ~accs:[ Ir.Const 0 ]
      (fun b ~iv:j ~accs ->
        let acc = match accs with [ a ] -> a | _ -> assert false in
        ignore (Builder.call b "!op_begin" [ Ir.Const 0 ]);
        let tptr = Builder.gep b trace ~index:j ~scale:4 () in
        let key = Builder.load b ~size:4 tptr in
        let probe = Builder.add b key (Ir.Const 1) in
        let h =
          Builder.binop b Ir.And
            (Builder.mul b key (Ir.Const hash_mult))
            (Ir.Const mask)
        in
        (* Probe until the key matches (all trace keys are present). *)
        let final =
          Builder.while_loop_acc b ~hint:"probe_get" ~accs:[ h ]
            ~cond:(fun b ~accs ->
              let slot = match accs with [ s ] -> s | _ -> assert false in
              let kptr = Builder.gep b table ~index:slot ~scale:8 () in
              let stored = Builder.load b ~size:4 kptr in
              Builder.icmp b Ir.Ne stored probe)
            (fun b ~accs ->
              let slot = match accs with [ s ] -> s | _ -> assert false in
              [ Builder.binop b Ir.And
                  (Builder.add b slot (Ir.Const 1))
                  (Ir.Const mask) ])
        in
        let slot = match final with [ s ] -> s | _ -> assert false in
        let vptr = Builder.gep b table ~index:slot ~scale:8 ~offset:4 () in
        let v = Builder.load b ~size:4 vptr in
        ignore (Builder.call b "!op_end" []);
        [ Builder.binop b Ir.And (Builder.add b acc v) (Ir.Const checksum_mask) ])
  in
  let ck = match accs with [ a ] -> a | _ -> assert false in
  Builder.ret b (Some ck);
  Verifier.check_module m;
  m

let checksum p =
  (* The values are a pure function of the key, so the reference needs no
     table at all — just the trace. *)
  let blob = trace_blob p in
  let acc = ref 0 in
  for j = 0 to p.lookups - 1 do
    let key = Int32.to_int (Bytes.get_int32_le blob (j * 4)) in
    acc := (!acc + value_of_key key) land checksum_mask
  done;
  !acc

let workload p =
  {
    Workload.name = "hashmap";
    build = build p;
    blobs = lazy [ (0, trace_blob p) ];
    working_set = working_set_bytes p;
    oracle = lazy (checksum p);
    op_classes;
  }
