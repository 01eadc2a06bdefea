(** Helper-hidden pointer chase (the shape-analysis workload).

    The same Lehmer-permuted linked list as {!Chase} plus a
    pointer-threaded complete binary tree — but every dependent load is
    hidden inside a one-load helper ([node_next], [node_value],
    [tree_left], [tree_right], [tree_value]) and the tree walk is a
    recursive [subtree_sum]. Intraprocedurally each helper merely loads
    through its argument, so the access-pattern classifier sees no
    chain; only the interprocedural shape analysis
    ({!Tfm_analysis.Shape}) can prove these sites are pointer chases
    and let the route pass move them to the page-fault path. *)

val build : nodes:int -> tnodes:int -> unit -> Ir.modul
(** [nodes >= 2] list nodes and [tnodes >= 1] tree nodes. The program
    returns the masked sum of both traversals. *)

val working_set_bytes : nodes:int -> tnodes:int -> int

val checksum : nodes:int -> tnodes:int -> int
(** Expected program result, computed host-side. *)

val workload : nodes:int -> tnodes:int -> Workload.t
(** ["llist"] with [nodes] list nodes and [tnodes] tree nodes. *)
