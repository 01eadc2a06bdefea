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

let fixpoint (f : Ir.func) tbl ~bot ~join transfer =
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun (i : Ir.instr) ->
            if Ir.defines_value i.kind then begin
              let old = try Hashtbl.find tbl i.id with Not_found -> bot in
              let nu = join old (transfer i) in
              if nu <> old then begin
                Hashtbl.replace tbl i.id nu;
                changed := true
              end
            end)
          b.instrs)
      f.blocks
  done
