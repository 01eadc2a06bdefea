(* A runnable workload: one program at one size, with the inputs it
   reads and the answer it must give. Each workload module builds one
   with its [workload] constructor; [Catalog] names the ones the CLI
   runs. The inputs and the answer are computed on first use, at most
   once, so a record costs nothing until it runs. *)

type t = {
  name : string;
  build : unit -> Ir.modul;  (** a fresh, untransformed module per call *)
  blobs : (int * Bytes.t) list Lazy.t;
      (** the input blobs the program copies in with [!load_blob] *)
  working_set : int;  (** bytes of heap the program touches *)
  oracle : int Lazy.t;  (** the host reference: the program's return value *)
  op_classes : (int * string) list;
      (** span operation classes the program marks with
          [!op_begin]/[!op_end] *)
}
