(* Execution-engine selection: the tree-walking interpreter (reference
   semantics, the differential oracle) or the compiled closure engine
   (same observable behaviour and several times faster; EXPERIMENTS.md's
   engine_speedup row has the measured ratios). The compiled engine is the
   default; the differential tests and the engine-parity cells name the
   interpreter explicitly. *)

type t = Interp | Compiled

let default = Compiled
let all = [ Interp; Compiled ]
let to_string = function Interp -> "interp" | Compiled -> "compiled"

let run ?profile ?shadow ?fuel ?args ~engine backend m ~entry =
  match engine with
  | Interp -> Interp.run ?profile ?shadow ?fuel ?args backend m ~entry
  | Compiled -> (
      match shadow with
      | Some _ ->
          (* The shadow depth plane is a reference-semantics audit; the
             compiled engine deliberately does not carry it. *)
          invalid_arg "Engine.run: the shadow validator requires --engine interp"
      | None -> Compile.run ?profile ?fuel ?args backend m ~entry)
