(* Helper-hidden recursive-structure traversal: the same Lehmer-permuted
   linked list as {!Chase} plus a pointer-threaded binary tree, but every
   dependent load sits inside a tiny helper function (node_next,
   node_value, tree_left, ...) and the tree walk is a recursive
   subtree_sum. Intraprocedurally each helper just loads through an
   argument — no chain is visible — so this workload only classifies
   (and statically routes) as a pointer chase when the interprocedural
   shape analysis propagates depth through the calls. *)

let node_bytes = 16 (* list node: next @ 0, value @ 8 *)
let tnode_bytes = 24 (* tree node: left @ 0, right @ 8, value @ 16 *)
let mult = 48271 (* Lehmer multiplier; a permutation when coprime *)
let value_mask = 0xFF
let acc_mask = 0x3FFFFFFF

let working_set_bytes ~nodes ~tnodes =
  (nodes * node_bytes) + (tnodes * tnode_bytes)

(* One-load accessors: the only memory operations of the traversal
   phase live here, hidden from the call sites in [main]. *)
let field_helper m name offset =
  let b = Builder.create m ~name ~nparams:1 in
  Builder.ret b
    (Some
       (Builder.load b
          (Builder.gep b (Builder.arg 0) ~index:(Ir.Const 0) ~scale:1 ~offset
             ())));
  ()

let build ~nodes ~tnodes () =
  if nodes < 2 then invalid_arg "Llist.build: nodes must be >= 2";
  if tnodes < 1 then invalid_arg "Llist.build: tnodes must be >= 1";
  if tnodes mod mult = 0 then invalid_arg "Llist.build: tnodes not coprime";
  let m = Ir.create_module () in
  field_helper m "node_next" 0;
  field_helper m "node_value" 8;
  field_helper m "tree_left" 0;
  field_helper m "tree_right" 8;
  field_helper m "tree_value" 16;
  (* Recursive tree sum: value + subtree_sum(left) + subtree_sum(right),
     all through the one-load helpers. Explicit blocks because the base
     case returns a value. *)
  (let b = Builder.create m ~name:"subtree_sum" ~nparams:1 in
   let t = Builder.arg 0 in
   let base = Builder.add_block b "base" in
   let walk = Builder.add_block b "walk" in
   Builder.cbr b (Builder.icmp b Ir.Eq t (Ir.Const 0)) base walk;
   Builder.set_block b base;
   Builder.ret b (Some (Ir.Const 0));
   Builder.set_block b walk;
   let v = Builder.call b "tree_value" [ t ] in
   let l = Builder.call b "subtree_sum" [ Builder.call b "tree_left" [ t ] ] in
   let r =
     Builder.call b "subtree_sum" [ Builder.call b "tree_right" [ t ] ]
   in
   Builder.ret b (Some (Builder.add b v (Builder.add b l r))));
  let b = Builder.create m ~name:"main" ~nparams:0 in
  (* List arena, threaded exactly like {!Chase}: node k at slot
     k * mult mod nodes. *)
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
  let last_slot = (nodes - 1) * mult mod nodes in
  Builder.store b (Ir.Const 0)
    ~ptr:(Builder.gep b arena ~index:(Ir.Const last_slot) ~scale:node_bytes ());
  Builder.store b (Ir.Const 255)
    ~ptr:
      (Builder.gep b arena ~index:(Ir.Const last_slot) ~scale:node_bytes
         ~offset:8 ());
  (* Tree arena: a complete binary tree over tnodes nodes, node i at
     slot i * mult mod tnodes so parent and children share no spatial
     locality. Children 2i+1 / 2i+2; out-of-range child pointers are
     null via a branch-free select. *)
  let tarena = Builder.call b "malloc" [ Ir.Const (tnodes * tnode_bytes) ] in
  Builder.for_loop b ~hint:"tlink" ~init:(Ir.Const 0)
    ~bound:(Ir.Const tnodes) (fun b i ->
      let slot =
        Builder.binop b Ir.Srem
          (Builder.mul b i (Ir.Const mult))
          (Ir.Const tnodes)
      in
      let child off idx =
        let cslot =
          Builder.binop b Ir.Srem
            (Builder.mul b idx (Ir.Const mult))
            (Ir.Const tnodes)
        in
        let caddr = Builder.gep b tarena ~index:cslot ~scale:tnode_bytes () in
        let inb = Builder.icmp b Ir.Lt idx (Ir.Const tnodes) in
        Builder.store b
          (Builder.select b inb caddr (Ir.Const 0))
          ~ptr:
            (Builder.gep b tarena ~index:slot ~scale:tnode_bytes ~offset:off ())
      in
      child 0 (Builder.add b (Builder.mul b i (Ir.Const 2)) (Ir.Const 1));
      child 8 (Builder.add b (Builder.mul b i (Ir.Const 2)) (Ir.Const 2));
      Builder.store b
        (Builder.binop b Ir.And i (Ir.Const value_mask))
        ~ptr:
          (Builder.gep b tarena ~index:slot ~scale:tnode_bytes ~offset:16 ()));
  ignore (Builder.call b "!bench_begin" []);
  (* List traversal: every load goes through node_next / node_value. *)
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
        let v = Builder.call b "node_value" [ cur ] in
        let next = Builder.call b "node_next" [ cur ] in
        [
          next;
          Builder.binop b Ir.And (Builder.add b acc v) (Ir.Const acc_mask);
        ])
  in
  (* Tree traversal: root is node 0, at slot 0 * mult mod tnodes = 0. *)
  let troot = Builder.gep b tarena ~index:(Ir.Const 0) ~scale:tnode_bytes () in
  let tsum = Builder.call b "subtree_sum" [ troot ] in
  Builder.ret b
    (Some
       (Builder.binop b Ir.And
          (Builder.add b (List.nth final 1) tsum)
          (Ir.Const acc_mask)));
  Verifier.check_module m;
  m

(* Host-side oracle. List: node k holds k land 0xFF except the
   terminator (k = nodes-1) overwritten to 255, accumulated with the
   per-step mask the program applies. Tree: sum of i land 0xFF over all
   nodes (addition is order-independent and far from overflow). *)
let checksum ~nodes ~tnodes =
  let acc = ref 0 in
  for k = 0 to nodes - 1 do
    let v = if k = nodes - 1 then 255 else k land value_mask in
    acc := (!acc + v) land acc_mask
  done;
  let tsum = ref 0 in
  for i = 0 to tnodes - 1 do
    tsum := !tsum + (i land value_mask)
  done;
  (!acc + !tsum) land acc_mask

let workload ~nodes ~tnodes =
  {
    Workload.name = "llist";
    build = build ~nodes ~tnodes;
    blobs = lazy [];
    working_set = working_set_bytes ~nodes ~tnodes;
    oracle = lazy (checksum ~nodes ~tnodes);
    op_classes = [];
  }
