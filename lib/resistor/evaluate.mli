(** Table VI: attack the defended firmware on the simulated board.

    For each scenario the firmware is compiled with a defense
    configuration, booted once to its trigger on the {!Hw.Attack}
    kernel, and then attacked across the full glitch-parameter plane:

    - {e single}: one glitched cycle, [ext_offset] 0..10
      (11 x 9,801 = 107,811 attempts);
    - {e long}: glitches sustained for 10, 20, ..., 100 cycles from the
      trigger (10 x 9,801 = 98,010 attempts);
    - {e windowed}: a fixed 10-cycle glitch whose starting cycle varies
      over 0..10 (107,811 attempts).

    An attempt succeeds when the attack marker global holds [0xAA]
    post-mortem; it is detected when the GlitchResistor counter is
    non-zero (and the attack did not succeed), mirroring the paper's
    success/detection accounting. *)

type scenario =
  | Worst_case  (** [while (!a)], {!Firmware.guard_loop} *)
  | Best_case  (** [if (a == SUCCESS)], {!Firmware.if_success} *)

val scenario_name : scenario -> string
val scenario_source : scenario -> string

type attack = Single | Long | Windowed

val attack_name : attack -> string

type outcome = {
  attempts : int;
  successes : int;
  detections : int;
  sweep : Hw.Attack.sweep;  (** what the sweep cost on the board kernel *)
}

val success_rate : outcome -> float
val detection_rate : outcome -> float
(** detections / (detections + successes), the paper's formula. *)

val run :
  ?pool:Runtime.Pool.t ->
  ?sweep_step:int ->
  Config.t ->
  scenario ->
  attack ->
  outcome
(** [sweep_step] strides the (width, offset) plane (default 1 = the full
    9,801-point sweep; benches may use 1, quick tests a larger step —
    attempt counts scale accordingly).

    Sweep rows (one width at one attack window) are claimed one at a
    time by the workers of [pool] (one worker in the caller without a
    pool) through {!Hw.Attack.map_items}: one boot, one private board
    per worker, every attempt rewound to the trigger snapshot and cut
    short once its schedule is dead, so the summed counts are
    bit-identical at every job count. Attempts may run 4,000 cycles
    past the trigger edge.
    @raise Hw.Attack.No_trigger if the firmware never raises its
    trigger within 2,000,000 cycles. *)

val run_image :
  ?pool:Runtime.Pool.t ->
  ?sweep_step:int ->
  Lower.Layout.image ->
  attack ->
  outcome
(** Attack an already-linked image (used by the per-defense ablation and
    the CFCSS baseline comparison). The firmware must raise the trigger
    and write the attack marker, like {!Firmware.guard_loop}.
    @raise Invalid_argument if [sweep_step < 1].
    @raise Hw.Attack.No_trigger as {!run}. *)
