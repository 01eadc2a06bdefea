type params = {
  keys : int;
  value_size : int;
  gets : int;
  skew : float;
  seed : int;
  service_cycles : int;
}

let default_params ~keys ~gets ~skew =
  { keys; value_size = 64; gets; skew; seed = 1234; service_cycles = 30_000 }

let checksum_mask = 0x3FFFFFFF

let round_pow2 n =
  let c = ref 1 in
  while !c < n do
    c := !c * 2
  done;
  !c

let slots p = round_pow2 (2 * p.keys)
let hash_mult = 0x2545F4914F6CDD1D land max_int

(* Word [w] of key [k]'s value; pure function so the reference needs no
   table. *)
let value_word k w = ((k * 131) + (w * 17)) land 0xFFFF

let trace_blob p =
  let rng = Tfm_util.Rng.create p.seed in
  let z = Tfm_util.Zipf.create ~n:p.keys ~skew:p.skew in
  let bytes = Bytes.create (p.gets * 4) in
  for j = 0 to p.gets - 1 do
    Bytes.set_int32_le bytes (j * 4) (Int32.of_int (Tfm_util.Zipf.sample z rng))
  done;
  bytes

let working_set_bytes p =
  (slots p * 16) + (p.keys * p.value_size) + (p.gets * 4)

let op_classes = [ (0, "get") ]

(* Table layout: 16 bytes per slot: key+1 (8B) then value pointer (8B). *)
let build p () =
  assert (p.value_size mod 8 = 0 && p.value_size > 0);
  let nslots = slots p in
  let mask = nslots - 1 in
  let words = p.value_size / 8 in
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let table = Builder.call b "calloc" [ Ir.Const nslots; Ir.Const 16 ] in
  let trace = Builder.call b "malloc" [ Ir.Const (p.gets * 4) ] in
  ignore (Builder.call b "!load_blob" [ trace; Ir.Const 0 ]);
  (* Set phase: allocate each value from the slab (size-class) allocator
     and insert into the table. *)
  Builder.for_loop b ~hint:"set" ~init:(Ir.Const 0) ~bound:(Ir.Const p.keys)
    (fun b key ->
      let vblock = Builder.call b "malloc" [ Ir.Const p.value_size ] in
      Builder.for_loop b ~hint:"fillv" ~init:(Ir.Const 0)
        ~bound:(Ir.Const words) (fun b w ->
          let v =
            Builder.binop b Ir.And
              (Builder.add b
                 (Builder.mul b key (Ir.Const 131))
                 (Builder.mul b w (Ir.Const 17)))
              (Ir.Const 0xFFFF)
          in
          let ptr = Builder.gep b vblock ~index:w ~scale:8 () in
          Builder.store b v ~ptr);
      let h =
        Builder.binop b Ir.And
          (Builder.mul b key (Ir.Const hash_mult))
          (Ir.Const mask)
      in
      let final =
        Builder.while_loop_acc b ~hint:"probe_set" ~accs:[ h ]
          ~cond:(fun b ~accs ->
            let slot = match accs with [ s ] -> s | _ -> assert false in
            let kptr = Builder.gep b table ~index:slot ~scale:16 () in
            let stored = Builder.load b kptr in
            Builder.icmp b Ir.Ne stored (Ir.Const 0))
          (fun b ~accs ->
            let slot = match accs with [ s ] -> s | _ -> assert false in
            [ Builder.binop b Ir.And
                (Builder.add b slot (Ir.Const 1))
                (Ir.Const mask) ])
      in
      let slot = match final with [ s ] -> s | _ -> assert false in
      let kptr = Builder.gep b table ~index:slot ~scale:16 () in
      Builder.store b (Builder.add b key (Ir.Const 1)) ~ptr:kptr;
      let pptr = Builder.gep b table ~index:slot ~scale:16 ~offset:8 () in
      Builder.store b vblock ~ptr:pptr);
  ignore (Builder.call b "!bench_begin" []);
  (* Get phase. *)
  let accs =
    Builder.for_loop_acc b ~hint:"gets" ~init:(Ir.Const 0)
      ~bound:(Ir.Const p.gets) ~accs:[ Ir.Const 0 ]
      (fun b ~iv:j ~accs ->
        let acc = match accs with [ a ] -> a | _ -> assert false in
        ignore (Builder.call b "!op_begin" [ Ir.Const 0 ]);
        ignore (Builder.call b "!cpu_work" [ Ir.Const p.service_cycles ]);
        let tptr = Builder.gep b trace ~index:j ~scale:4 () in
        let key = Builder.load b ~size:4 tptr in
        let probe = Builder.add b key (Ir.Const 1) in
        let h =
          Builder.binop b Ir.And
            (Builder.mul b key (Ir.Const hash_mult))
            (Ir.Const mask)
        in
        let final =
          Builder.while_loop_acc b ~hint:"probe_get" ~accs:[ h ]
            ~cond:(fun b ~accs ->
              let slot = match accs with [ s ] -> s | _ -> assert false in
              let kptr = Builder.gep b table ~index:slot ~scale:16 () in
              let stored = Builder.load b kptr in
              Builder.icmp b Ir.Ne stored probe)
            (fun b ~accs ->
              let slot = match accs with [ s ] -> s | _ -> assert false in
              [ Builder.binop b Ir.And
                  (Builder.add b slot (Ir.Const 1))
                  (Ir.Const mask) ])
        in
        let slot = match final with [ s ] -> s | _ -> assert false in
        let pptr = Builder.gep b table ~index:slot ~scale:16 ~offset:8 () in
        let vblock = Builder.load b pptr in
        (* Read the whole value, as a memcached get materializes the item. *)
        let vaccs =
          Builder.for_loop_acc b ~hint:"readv" ~init:(Ir.Const 0)
            ~bound:(Ir.Const words) ~accs:[ acc ]
            (fun b ~iv:w ~accs ->
              let acc = match accs with [ a ] -> a | _ -> assert false in
              let ptr = Builder.gep b vblock ~index:w ~scale:8 () in
              let v = Builder.load b ptr in
              [ Builder.binop b Ir.And (Builder.add b acc v)
                  (Ir.Const checksum_mask) ])
        in
        ignore (Builder.call b "!op_end" []);
        [ (match vaccs with [ a ] -> a | _ -> assert false) ])
  in
  let ck = match accs with [ a ] -> a | _ -> assert false in
  Builder.ret b (Some ck);
  Verifier.check_module m;
  m

let checksum p =
  let blob = trace_blob p in
  let words = p.value_size / 8 in
  let acc = ref 0 in
  for j = 0 to p.gets - 1 do
    let key = Int32.to_int (Bytes.get_int32_le blob (j * 4)) in
    for w = 0 to words - 1 do
      acc := (!acc + value_word key w) land checksum_mask
    done
  done;
  !acc

let workload p =
  {
    Workload.name = "memcached";
    build = build p;
    blobs = lazy [ (0, trace_blob p) ];
    working_set = working_set_bytes p;
    oracle = lazy (checksum p);
    op_classes;
  }
