(* Linked-list pointer chase: nodes threaded through one arena in a
   Lehmer-permuted order, so successive list nodes share no spatial
   locality and every hop is a dependent load. Formerly inlined in the
   bench harness's Section 5 limitation experiment; promoted to a
   bundled workload because it is the canonical pointer-chasing shape
   the hybrid data plane routes to the page-fault path. *)

let node_bytes = 16
let mult = 48271 (* Lehmer multiplier; a permutation when coprime *)
let value_mask = 0xFF
let acc_mask = 0x3FFFFFFF

let working_set_bytes ~nodes = nodes * node_bytes

let build ~nodes () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  (* One arena, nodes threaded in a shuffled order so successive nodes
     share no spatial locality: node k at slot perm(k) = k * mult mod
     nodes. *)
  let arena = Builder.call b "malloc" [ Ir.Const (nodes * node_bytes) ] in
  Builder.for_loop b ~hint:"link" ~init:(Ir.Const 0)
    ~bound:(Ir.Const (nodes - 1)) (fun b k ->
      let slot =
        Builder.binop b Ir.Srem
          (Builder.mul b k (Ir.Const mult))
          (Ir.Const nodes)
      in
      let next_slot =
        Builder.binop b Ir.Srem
          (Builder.mul b (Builder.add b k (Ir.Const 1)) (Ir.Const mult))
          (Ir.Const nodes)
      in
      let nptr = Builder.gep b arena ~index:slot ~scale:node_bytes () in
      let next_addr =
        Builder.gep b arena ~index:next_slot ~scale:node_bytes ()
      in
      Builder.store b
        (Builder.binop b Ir.And k (Ir.Const value_mask))
        ~ptr:(Builder.gep b arena ~index:slot ~scale:node_bytes ~offset:8 ());
      Builder.store b next_addr ~ptr:nptr);
  (* terminate the list *)
  let last_slot = (nodes - 1) * mult mod nodes in
  Builder.store b (Ir.Const 0)
    ~ptr:(Builder.gep b arena ~index:(Ir.Const last_slot) ~scale:node_bytes ());
  Builder.store b (Ir.Const 255)
    ~ptr:
      (Builder.gep b arena ~index:(Ir.Const last_slot) ~scale:node_bytes
         ~offset:8 ());
  ignore (Builder.call b "!bench_begin" []);
  let head = Builder.gep b arena ~index:(Ir.Const 0) ~scale:node_bytes () in
  let final =
    Builder.while_loop_acc b
      ~accs:[ head; Ir.Const 0 ]
      ~cond:(fun b ~accs ->
        let cur = List.hd accs in
        Builder.icmp b Ir.Ne cur (Ir.Const 0))
      (fun b ~accs ->
        let cur, acc =
          match accs with [ c; a ] -> (c, a) | _ -> assert false
        in
        let v =
          Builder.load b
            (Builder.gep b cur ~index:(Ir.Const 0) ~scale:1 ~offset:8 ())
        in
        let next = Builder.load b cur in
        [
          next;
          Builder.binop b Ir.And (Builder.add b acc v) (Ir.Const acc_mask);
        ])
  in
  Builder.ret b (Some (List.nth final 1));
  Verifier.check_module m;
  m

(* Host-side oracle of the traversal: node k holds k land 0xFF, except
   the terminator node (k = nodes-1) whose value is overwritten to 255;
   the program visits nodes 0..nodes-1 in list order. *)
let checksum ~nodes =
  let acc = ref 0 in
  for k = 0 to nodes - 1 do
    let v = if k = nodes - 1 then 255 else k land value_mask in
    acc := (!acc + v) land acc_mask
  done;
  !acc

let workload ~nodes =
  {
    Workload.name = "pointer-chase";
    build = build ~nodes;
    blobs = lazy [];
    working_set = working_set_bytes ~nodes;
    oracle = lazy (checksum ~nodes);
    op_classes = [];
  }
