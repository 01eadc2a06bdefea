type kernel = Sum | Copy | Scale | Triad

let kernel_name = function
  | Sum -> "sum"
  | Copy -> "copy"
  | Scale -> "scale"
  | Triad -> "triad"

(* Source elements are small and deterministic so checksums are cheap to
   predict; masked to fit any supported element size. *)
let source_value i = ((i * 7) + 3) land 0x7FFF

let checksum_mask = 0x3FFFFFFF

let arrays_needed = function
  | Sum -> 1
  | Copy | Scale -> 2
  | Triad -> 3

let working_set_bytes ?(elem_size = 4) ~n ~kernel () =
  arrays_needed kernel * n * elem_size

let build ?(elem_size = 4) ~n ~kernel () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let bytes = n * elem_size in
  let src = Builder.call b "malloc" [ Ir.Const bytes ] in
  (* Initialize the source array. *)
  Builder.for_loop b ~hint:"init" ~init:(Ir.Const 0) ~bound:(Ir.Const n)
    (fun b iv ->
      let v =
        Builder.binop b Ir.And
          (Builder.add b (Builder.mul b iv (Ir.Const 7)) (Ir.Const 3))
          (Ir.Const 0x7FFF)
      in
      let p = Builder.gep b src ~index:iv ~scale:elem_size () in
      Builder.store b ~size:elem_size v ~ptr:p);
  ignore (Builder.call b "!bench_begin" []);
  let ret =
    match kernel with
    | Sum ->
        let accs =
          Builder.for_loop_acc b ~hint:"sum" ~init:(Ir.Const 0)
            ~bound:(Ir.Const n) ~accs:[ Ir.Const 0 ]
            (fun b ~iv ~accs ->
              let acc = match accs with [ a ] -> a | _ -> assert false in
              let p = Builder.gep b src ~index:iv ~scale:elem_size () in
              let x = Builder.load b ~size:elem_size p in
              [ Builder.binop b Ir.And (Builder.add b acc x)
                  (Ir.Const checksum_mask) ])
        in
        (match accs with [ a ] -> a | _ -> assert false)
    | Copy ->
        let dst = Builder.call b "malloc" [ Ir.Const bytes ] in
        Builder.for_loop b ~hint:"copy" ~init:(Ir.Const 0) ~bound:(Ir.Const n)
          (fun b iv ->
            let ps = Builder.gep b src ~index:iv ~scale:elem_size () in
            let pd = Builder.gep b dst ~index:iv ~scale:elem_size () in
            let x = Builder.load b ~size:elem_size ps in
            Builder.store b ~size:elem_size x ~ptr:pd);
        let last = Builder.gep b dst ~index:(Ir.Const (n - 1)) ~scale:elem_size () in
        let mid = Builder.gep b dst ~index:(Ir.Const (n / 2)) ~scale:elem_size () in
        let x1 = Builder.load b ~size:elem_size last in
        let x2 = Builder.load b ~size:elem_size mid in
        Builder.add b x1 x2
    | Scale ->
        let dst = Builder.call b "malloc" [ Ir.Const bytes ] in
        Builder.for_loop b ~hint:"scale" ~init:(Ir.Const 0)
          ~bound:(Ir.Const n) (fun b iv ->
            let ps = Builder.gep b src ~index:iv ~scale:elem_size () in
            let pd = Builder.gep b dst ~index:iv ~scale:elem_size () in
            let x = Builder.load b ~size:elem_size ps in
            let y =
              Builder.binop b Ir.And
                (Builder.mul b x (Ir.Const 3))
                (Ir.Const 0xFFFF)
            in
            Builder.store b ~size:elem_size y ~ptr:pd);
        let last = Builder.gep b dst ~index:(Ir.Const (n - 1)) ~scale:elem_size () in
        let mid = Builder.gep b dst ~index:(Ir.Const (n / 2)) ~scale:elem_size () in
        let x1 = Builder.load b ~size:elem_size last in
        let x2 = Builder.load b ~size:elem_size mid in
        Builder.add b x1 x2
    | Triad ->
        let b2 = Builder.call b "malloc" [ Ir.Const bytes ] in
        let dst = Builder.call b "malloc" [ Ir.Const bytes ] in
        Builder.for_loop b ~hint:"triad.fill" ~init:(Ir.Const 0)
          ~bound:(Ir.Const n) (fun b iv ->
            let v = Builder.binop b Ir.And iv (Ir.Const 0xFF) in
            let p = Builder.gep b b2 ~index:iv ~scale:elem_size () in
            Builder.store b ~size:elem_size v ~ptr:p);
        let accs =
          Builder.for_loop_acc b ~hint:"triad" ~init:(Ir.Const 0)
            ~bound:(Ir.Const n) ~accs:[ Ir.Const 0 ]
            (fun b ~iv ~accs ->
              let acc = match accs with [ a ] -> a | _ -> assert false in
              let ps = Builder.gep b src ~index:iv ~scale:elem_size () in
              let pc = Builder.gep b b2 ~index:iv ~scale:elem_size () in
              let pd = Builder.gep b dst ~index:iv ~scale:elem_size () in
              let x = Builder.load b ~size:elem_size ps in
              let c = Builder.load b ~size:elem_size pc in
              let y =
                Builder.binop b Ir.And
                  (Builder.add b x (Builder.mul b c (Ir.Const 3)))
                  (Ir.Const 0xFFFF)
              in
              Builder.store b ~size:elem_size y ~ptr:pd;
              [ Builder.binop b Ir.And (Builder.add b acc y)
                  (Ir.Const checksum_mask) ])
        in
        (match accs with [ a ] -> a | _ -> assert false)
  in
  Builder.ret b (Some ret);
  Verifier.check_module m;
  m

let checksum ?(elem_size = 4) ~n ~kernel () =
  ignore elem_size;
  match kernel with
  | Sum ->
      let acc = ref 0 in
      for i = 0 to n - 1 do
        acc := (!acc + source_value i) land checksum_mask
      done;
      !acc
  | Copy -> source_value (n - 1) + source_value (n / 2)
  | Scale ->
      (source_value (n - 1) * 3 land 0xFFFF)
      + (source_value (n / 2) * 3 land 0xFFFF)
  | Triad ->
      let acc = ref 0 in
      for i = 0 to n - 1 do
        let y = (source_value i + (3 * (i land 0xFF))) land 0xFFFF in
        acc := (!acc + y) land checksum_mask
      done;
      !acc
