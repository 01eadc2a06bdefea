(** Hash table keyed by ints, hashing a key to itself.

    For Memstore's page table, probed when an access misses Memstore's
    direct-mapped page cache: a probe is an array index and a few
    integer compares, where a polymorphic [Hashtbl] calls the C hash
    function and the generic comparison on every probe. (Fastswap keeps
    its page states in a Memstore, one byte per page, so it reaches this
    table only through that cache.) *)

include Hashtbl.S with type key = int
