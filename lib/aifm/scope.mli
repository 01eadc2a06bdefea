(** DerefScope: pin objects for the duration of a computation.

    AIFM requires every dereference of remotable memory to happen under a
    scope so the evacuator cannot delocalize in-use objects (Listing 1 of
    the paper). The TrackFM guard protocol relies on the same mechanism:
    between the guard's safety check and the target load/store the object
    is in-scope and therefore unevictable. *)

val with_object : Pool.t -> int -> (unit -> 'a) -> 'a
(** Pin one object id around the callback (exception-safe). *)
