let run (m : Ir.modul) =
  let inlined = Inline.inline_calls m in
  let promoted = Mem2reg.run m in
  let cleaned = Opt.run_o1 m in
  Verifier.check_module m;
  inlined + promoted + cleaned

let build build () =
  let m = build () in
  ignore (run m);
  m
