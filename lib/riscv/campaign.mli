(** The Figure 2 experiment ported to RV32I — the cross-ISA study the
    paper could not run without fabricating silicon.

    32-bit encodings make exhaustive mask enumeration infeasible
    (2^32 per instruction), so a weight is enumerated exhaustively
    whenever its whole population C(32,k) fits the per-weight sampling
    budget of 600 masks (weights 0-2 and 30-32) and otherwise sampled
    deterministically (seed [0x155C5EED]) without replacement-correction;
    each run gets 200 steps. Rates are reported per weight exactly as for
    Thumb. Outcome categories are shared with {!Glitch_emu.Campaign} so
    the two ISAs classify runs identically.

    Note a structural difference that matters to the paper's
    hypothesis: RV32I's all-zero word is architecturally an illegal
    instruction (as is all-ones), i.e. RISC-V ships the "make 0x0000
    invalid" ISA hardening of Figure 2(c) by construction. *)

type testcase = {
  name : string;
  instrs : Instr.t list;
  target_index : int;
}

val conditional_branch : Instr.branch_cond -> testcase
val all_conditional_branches : testcase list

val run_one :
  Glitch_emu.Fault_model.flip -> testcase -> mask:int ->
  Glitch_emu.Campaign.category

type result = {
  case : testcase;
  flip : Glitch_emu.Fault_model.flip;
  by_weight : (int * int array) list;
      (** (attempted masks, per-category counts) indexed by the number
          of bits the mask can flip, 0-32, as [Fault_model.flipped_bits]
          counts them: entry 0 is the unmodified word under every model
          and is left out of [totals]. *)
  totals : int array;
}

val run_case : Glitch_emu.Fault_model.flip -> testcase -> result

val success_percent : result -> float
(** Share of modified-mask runs that skipped the branch. *)

val category_percent : result -> Glitch_emu.Campaign.category -> float
