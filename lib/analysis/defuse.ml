type t = {
  defs : (int, Ir.instr) Hashtbl.t;
  blocks : (int, string) Hashtbl.t;
}

let build (f : Ir.func) =
  let defs = Hashtbl.create 64 in
  let blocks = Hashtbl.create 64 in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          Hashtbl.replace defs i.id i;
          Hashtbl.replace blocks i.id b.label)
        b.instrs)
    f.blocks;
  { defs; blocks }

let def t id = Hashtbl.find_opt t.defs id
let block_of t id = Hashtbl.find_opt t.blocks id
