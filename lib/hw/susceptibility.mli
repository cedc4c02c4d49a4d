(** The physical fault model: what a clock glitch with a given (width,
    offset) does to the instruction stream at a given cycle.

    This is the one module where physics is replaced by a calibrated
    parametric model (see DESIGN.md). Structure:

    - a {e landscape} [e(width, offset)] in [0, 1] built from a few
      narrow Gaussian sweet spots — glitches are only effective where the
      injected edge violates the pipeline's setup/hold margins, and the
      effective region is a small fraction of the full parameter plane
      (the paper's full sweeps succeed on ~0.3-1.3% of attempts);
    - a per-attempt noise draw: an attempt at parameter point p fires iff
      [u(seed, p, cycle, nonce) < e(p) * class_factor(instr)]. Because
      [e] depends only on the physical setting, repeating the same
      parameters is strongly correlated (multi-glitch full success is
      far above the product of independent rates, as in Table II) while
      never deterministic;
    - a {e class factor} per instruction kind: loads are the easiest to
      disturb, compares and branches follow, register-only ALU ops are
      nearly immune — the paper's RQ4 findings;
    - an {e effect} draw for firing glitches: skip the instruction,
      corrupt the fetched encoding with 1->0-biased bit flips, corrupt a
      load's destination register (bit flips or bus residue such as the
      SP or the GPIO address — the values seen post-mortem in Table I),
      or flip the Z flag during a compare. *)

val seed : int
(** The board seed, [0x51075ED]: the sweet-spot centres and every
    per-point draw hash it. The model's other calibration constants
    (three sweet spots, each a core of amplitude 1.3 and sigma 0.8 on a
    tail of amplitude 0.42 and sigma 5.0; per-bit 1->0 and 0->1
    corruption probabilities 0.35 and 0.04) are private: there is one
    target, and docs/FAULT_MODEL.md records what pins each value. *)

(** What happens to the glitched cycle. The board supplies the true
    encoding / loaded value where the effect needs one. *)
type effect =
  | No_fault
  | Skip  (** targeted instruction executes as a NOP *)
  | Corrupt_fetch  (** the fetched encoding is bit-corrupted before decode *)
  | Load_residue of int  (** load's destination replaced by a bus residue *)
  | Load_bitflip  (** load's destination value bit-corrupted *)
  | Flip_z  (** the compare's Z flag is inverted after execution *)
  | Pc_corrupt  (** the prefetch address latch is destroyed: the core
                    runs away and (almost always) crashes *)

val pp_effect : effect Fmt.t

val landscape : width:int -> offset:int -> float
(** Effectiveness of the physical parameter point; pure in (width,
    offset). Memoized: each domain keeps a 99 x 99 grid, filled point by
    point on first use; a (width, offset) off the grid is computed
    directly. *)

val landscape_direct : width:int -> offset:int -> float
(** {!landscape} computed without the grid: the memo's reference. *)

val class_factor : Thumb.Instr.t -> float
(** Relative susceptibility of the executing instruction (RQ4). *)

(** {2 Integer gates and the draw context}

    Every draw compares integers ({!Hashrand.threshold}). The constant
    probabilities become thresholds once, when the module loads; the
    gate of a (width, offset) point, [e(p) * factor], becomes one row
    of thresholds per point, which the glitcher fills once per attempt
    and schedule entry. The same record carries the entry's draw
    context: the per-cycle draws hash (seed, salt, width, offset,
    cycle[, nonce]), and a salt's fold over its first four coordinates
    ({!Hashrand.set_prefix}) is kept from its first draw after
    {!fill_gates} on, so each later draw folds only the cycle and the
    nonce. Every draw equals its {!Hashrand.hash4}/{!Hashrand.hash5}
    form bit for bit. *)

type gates
(** One threshold per gate class, [threshold (e *. f)] for the
    landscape [e] of a point and each factor [f] of {!gate_factors};
    the point itself; and the point's folded draw prefixes. *)

val gate_factors : float list
(** The factors a gate multiplies the landscape by: each value
    {!class_factor} returns, a load's factor under a sustained glitch
    (1.2), and the decode/fetch latches' factor (0.55). *)

val draw_probabilities : float list
(** Every constant probability a draw compares against. *)

val make_gates : unit -> gates

val fill_gates : gates -> width:int -> offset:int -> unit
(** Overwrite with the gates of ([width], [offset]), its landscape read
    from the memo, and forget every folded prefix. *)

val gates_width : gates -> int
val gates_offset : gates -> int
(** The point {!fill_gates} last set. *)

val stage : gates:gates -> cycle:int -> int
(** Which of the Cortex-M0's three pipeline stages a glitched cycle at
    the point disturbs: [0] the executing instruction, [2] or [4] the
    one decode or fetch holds, that many bytes on. *)

val back_stage_fires : gates:gates -> cycle:int -> nonce:int -> bool
(** Whether a glitch on the decode or fetch latch plants a corruption:
    the gate [u < e(p) * 0.55], with attempt noise like {!roll}'s. *)

val plant_skips : gates:gates -> cycle:int -> bool
(** Whether a planted corruption turns its victim into a NOP rather than
    corrupting its encoding ({!corrupt_word}); deterministic in the
    point. *)

val roll_gated :
  sustained:bool ->
  gates:gates ->
  cycle:int ->
  nonce:int ->
  instr:Thumb.Instr.t ->
  sp:int ->
  effect
(** Decide the effect of one glitched cycle at the point of [gates].
    [nonce] distinguishes attempts with identical parameters; [sp]
    seeds realistic bus-residue values. [sustained] marks glitches
    stretched over many consecutive cycles (long-glitch attacks), whose
    aborted loads read back zero. *)

val roll :
  sustained:bool ->
  landscape:float ->
  width:int ->
  offset:int ->
  cycle:int ->
  nonce:int ->
  instr:Thumb.Instr.t ->
  sp:int ->
  effect
(** {!roll_gated} with fresh gates of [landscape], {!landscape} at
    ([width], [offset]). *)

val corrupt_word : width:int -> offset:int -> cycle:int -> int -> int
(** 1->0-biased bit corruption of a 16-bit instruction word, drawn at
    the glitch point ([width], [offset], [cycle]): deterministic in the
    point, like {!roll}'s choice of effect. *)

val corrupt_value32 : width:int -> offset:int -> cycle:int -> int -> int
(** Same bias over a 32-bit data value. *)
