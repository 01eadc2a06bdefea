(** Static access-pattern classification for the hybrid data plane.

    Classifies every may-heap access site of a function as streaming
    (affine stride over an invariant base in a counted loop — the shape
    chunking and prefetching reward, so guards keep it), pointer-chasing
    (the address chains through loaded pointers — dependent misses the
    guard fast path only taxes, so the page-fault path should own it),
    mixed (both kinds of evidence), or unknown (neither). Each site also
    carries a density/reuse estimate and a one-line rationale.

    Advice, not proof: the route pass consumes this table, and the
    coverage checker re-proves the resulting guards-vs-paging split
    structurally without ever consulting it. *)

type cls = Streaming | Pointer_chase | Mixed | Unknown

val cls_to_string : cls -> string

type site = {
  instr_id : int;
  block : string;
  is_store : bool;
  size : int;  (** bytes per access *)
  cls : cls;
  stride : int option;  (** byte stride when streaming evidence exists *)
  chain_depth : int;  (** loaded-pointer hops in the address chain *)
  shape : string option;
      (** structure kind at the accessed allocation site, when the shape
          analysis resolved one (list/tree/graph/scalar) *)
  density : float;
      (** estimated useful fraction of a fetched line/page at this site *)
  rationale : string;  (** deterministic one-line evidence summary *)
}

type t

val analyze :
  ?summaries:Summary.env -> ?shapes:Shape.env -> Induction.t -> t
(** Classify the sites of {!Induction.func} over the loops, def-use and
    induction variables of the structure the caller built; the analysis
    builds none. The route pass builds one per function and hands the
    same one to its custody dataflow; the [classify] CLI builds its
    own. With [summaries], pass-through helpers ([From_arg] return
    provenance) keep dereference chains alive across calls, and the
    may-heap site set inherits the summary-aware alias precision. With
    [shapes], chains additionally survive *loaded* hops hidden inside
    helpers ([ret_hops]) and arguments inherit their callers' chain
    depths (calling contexts), so helper-hidden traversals classify
    [Pointer_chase] instead of [Unknown]; sites also gain the structure
    kind of the allocation site they touch. Shape facts only ever add
    chain evidence — a [Streaming] verdict cannot be manufactured by
    them. *)

val sites : t -> site list
(** Ascending instruction id. *)

val site_of : t -> int -> site option

val dump : t -> string
(** Deterministic per-function dump (one line per site, ascending id);
    the [classify] CLI subcommand prints this and CI byte-compares two
    runs. *)
