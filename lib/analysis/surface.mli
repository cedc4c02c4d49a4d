(** Static glitch-surface analysis: a campaign-free counterpart of the
    Figure-2 taxonomy.

    For every reachable fetched word, all 1-bit (16) and 2-bit (120)
    XOR perturbations are pushed through {!Thumb.Decode.table} and an
    abstract control-flow semantics, and classified:

    - {!Fault}: the perturbed word has no decoding (the dynamic sweep
      would report Invalid Instruction);
    - {!Control}: the original or perturbed instruction diverts control
      (PC write, call, trap, halt) — the flip changes where execution
      goes;
    - {!Benign}: a data perturbation on a straight-line instruction.

    The classification is a pure function of (old word, new word); the
    QCheck differential in [test/test_analysis.ml] pins it against
    {!Glitch_emu.Campaign.run_one} on the conditional-branch rigs. *)

type verdict = Control | Fault | Benign

val verdict_name : verdict -> string

val writes_pc : Thumb.Instr.t -> bool
val diverts : Thumb.Instr.t -> bool
(** [writes_pc] plus traps ([swi]), halts ([bkpt]) and undefined
    encodings — anything that keeps execution from continuing
    linearly. *)

val classify : old_word:int -> int -> verdict

type profile = {
  addr : int;
  word : int;
  control1 : int;
  fault1 : int;
  benign1 : int;  (** verdict counts over the 16 one-bit flips *)
  control2 : int;
  fault2 : int;
  benign2 : int;  (** verdict counts over the 120 two-bit flips *)
  direction_masks : int list;
      (** one-bit masks turning a conditional branch into its
          complemented condition with the same offset — the classic
          direction flip of Section III *)
  escape_masks : int list;
      (** one-bit masks degrading a conditional branch into a
          straight-line instruction: the guard is silently never
          taken *)
}

val flips1 : int
val flips2 : int

val profile_word : ?addr:int -> int -> profile
val susceptibility : profile -> float
(** Fraction of all 1/2-bit perturbations classified [Control]. *)

type func_surface = {
  fname : string;
  insns : int;
  control1 : int;
  fault1 : int;
  benign1 : int;
  control2 : int;
  fault2 : int;
  benign2 : int;
  score : float;
}

type t = {
  profiles : profile list;  (** one per reachable instruction *)
  funcs : func_surface list;
  image_score : float;  (** control fraction over the whole image *)
  total_flips : int;
}

val analyze : Cfg.t -> t

val predicted_outcomes :
  addr:int -> int -> Glitch_emu.Campaign.category list
(** The dynamic categories a perturbed [word] fetched at flash address
    [addr] can produce when it replaces the taken branch of a
    {!Glitch_emu.Testcase.conditional_branch} snippet.  Sound
    over-approximation: the differential property asserts membership
    for every sampled mask, and that a {!Fault} (undecodable) verdict
    always surfaces as [Invalid_instruction].  The converse does not
    hold — a decodable [bx] to a non-Thumb address also raises
    [Invalid_instruction] at execution time. *)
