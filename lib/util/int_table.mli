(** Hash table keyed by ints, hashing a key to itself.

    For tables probed on every simulated access (Memstore's pages,
    Fastswap's page state): a probe is an array index and a few integer
    compares, where a polymorphic [Hashtbl] calls the C hash function
    and the generic comparison on every probe. *)

include Hashtbl.S with type key = int
