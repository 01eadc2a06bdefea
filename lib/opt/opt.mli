(** The "O1" pre-optimization pipeline (Section 4.5, Figure 17b).

    NOELLE's default pipeline hands TrackFM unoptimized IR; the paper
    found that running standard cleanups first (redundant-load and dead
    code elimination) cuts the memory instructions — and therefore the
    injected guards — by 4-6x on FT and SP. This library provides those
    cleanups for our IR:

    - constant folding of integer arithmetic, comparisons and selects;
    - local common-subexpression elimination of loads (a load from the
      same address with no intervening store or call reuses the earlier
      value) and of pure arithmetic;
    - dead code elimination of unused pure instructions (including dead
      loads).

    All passes preserve program semantics for any memory state; the test
    suite checks IR results before and after on every backend. *)

val constant_fold : Ir.func -> int
(** Returns the number of instructions folded. *)

val cse : Ir.func -> int
(** Local (per-block) CSE over pure arithmetic and loads. Returns the
    number of instructions eliminated. *)

val dce : Ir.func -> int
(** Remove unused pure instructions. Returns the number removed. *)

val run_o1 : Ir.modul -> int
(** The scalar cleanup fixpoint: iterate
    fold/CSE/LICM/phi-simplify/DCE/simplify-cfg module-wide until no
    pass changes anything; returns total instructions eliminated or
    rewritten. Verifies the module afterwards. It neither inlines nor
    promotes stack slots: {!O1.run} does both first, then calls this. *)

val licm : Ir.func -> int
(** Loop-invariant code motion for pure arithmetic and loads: an
    instruction whose operands are all defined outside the loop is hoisted
    to the preheader. Loads are hoisted only out of loops that contain no
    stores or calls (conservative aliasing), which is exactly the case
    where hoisting also removes a guard per iteration. Returns the number
    of instructions hoisted. *)

val simplify_cfg : Ir.func -> int
(** Control-flow cleanups: fold conditional branches on constants, thread
    jumps through empty forwarding blocks, and delete unreachable blocks
    (fixing up phi arms that referenced them). Returns the number of
    blocks removed or branches folded. *)

val simplify_trivial_phis : Ir.func -> int
(** Replace phis whose incoming arms all carry one same value (ignoring
    self-references) with that value. Runs to a fixpoint; returns the
    number of phis removed. Mem2reg's maximal phi placement relies on
    this cleanup to restore the direct [phi -> add(phi, c)] shape the
    induction-variable analysis matches. *)
