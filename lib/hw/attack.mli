(** Experiment drivers for the real-world glitching study (Section V):
    the three branch guards of Table I, the back-to-back multi-glitch
    loops of Table II, and the long-glitch sweep of Table III, plus the
    generic full-parameter sweep the defended-firmware evaluation
    (Table VI) reuses.

    Each attempt rewinds the board to a snapshot taken at the firmware's
    first trigger edge, arms the glitch, and classifies the run. The
    rewind is observationally identical to the ChipWhisperer workflow of
    power-cycling before every attempt (the boot up to the trigger is
    deterministic and no glitch window can arm before the first edge
    exists), but skips re-emulating it 9,801 times per sweep. *)

type guard =
  | While_not_a  (** [while (!a)], a = 0 — the paper's most glitchable *)
  | While_a  (** [while (a)], a = 1 *)
  | While_ne_const  (** [while (a != 0xD3B9AEC6)], large Hamming distance *)

val all_guards : guard list
val guard_name : guard -> string

val single_loop_program : guard -> string
(** Trigger + one infinite guard loop; escaping puts [0xAA] in [r0] and
    hits a breakpoint. Instruction sequences match Table I's listings
    (8 cycles per iteration). *)

val double_loop_program : guard -> string
(** Trigger + loop, trigger reset/re-raise + identical second loop
    (Table II's setup). [r4] records progress: 1 after the first loop,
    and [r0 = 0xAA] after both. *)

val long_glitch_program : guard -> string
(** Table III's target: both loops back-to-back under a single trigger
    with minimal glue, so a 10-20 cycle window reaches into the second
    loop. *)

val comparator : guard -> int
(** Register number holding the compared value ([r3], [r3], [r2]). *)

val loop_cycles : int
(** 8 — each guard iteration's cycle count, bounding [ext_offset]. *)

type rig
(** A booted target: a board run glitch-free to its first trigger edge,
    the snapshot taken there, and the recorded unglitched continuation
    ({!Glitcher.baseline}). All sweep attempts start from the snapshot
    instead of a power-on reset. *)

val boot_rig : ?max_cycles:int -> string -> rig
(** Assemble the program, boot it to its trigger edge, snapshot, and
    record the baseline. [max_cycles] (default 300) is the per-attempt
    cycle budget every subsequent sweep on this rig runs under.
    [Invalid_argument] if the program never raises the trigger.
    Equivalent to [rig_of_boot (boot_once program)] but reuses the
    booted board. *)

type boot
(** The shareable product of booting: trigger snapshot, unglitched
    baseline, and boot metadata. Snapshot and baseline are deep copies
    that are only read afterwards, so one [boot] may back rigs on many
    worker domains concurrently — the boot emulation and baseline
    recording happen once per table instead of once per worker. *)

val boot_once : ?max_cycles:int -> string -> boot
(** Boot the program once, as {!boot_rig} does, keeping the shareable
    parts. *)

val rig_of_boot : boot -> rig
(** A rig on a {e fresh} private board (assemble + load only — no
    emulation) backed by the shared snapshot/baseline. Sound because
    every {!attempt} restores the snapshot before executing. *)

val attempt :
  ?config:Susceptibility.config ->
  ?nonce:int ->
  rig ->
  Glitcher.params list ->
  Glitcher.observation
(** One glitch attempt from the rig's trigger snapshot, with its
    dead-schedule baseline armed. *)

val boot_cycles : rig -> int
(** Cycles the boot to the trigger edge consumed (emulated once,
    replayed by every attempt). *)

val rig_board : rig -> Board.t
(** The rig's board, for post-mortem inspection after {!attempt}. *)

(** What a sweep cost: attempts issued, cycles actually emulated,
    cycles served by snapshot restore (boot replay + dead-schedule
    cutoff) that the reset-per-attempt workflow would have emulated,
    and boots performed (1 per table since the boot is shared across
    workers; it was once per worker before). *)
type sweep = {
  attempts : int;
  emulated_cycles : int;
  replayed_cycles : int;
  boots : int;
}

val sweep_zero : sweep
val sweep_add : sweep -> sweep -> sweep

val sweep_perf :
  label:string -> ?pool:Runtime.Pool.t -> sweep -> float -> Stats.Perf.t
(** The PERF record of a sweep that took [elapsed_s] on [pool]:
    [attempts] as items, then [booted_cycles] (emulated),
    [replayed_cycles] and [replay_rate]. *)

(** One Table I cell: successes at a given cycle with the post-mortem
    comparator histogram. *)
type cycle_stats = { successes : int; values : (int * int) list }

type table1 = {
  guard : guard;
  per_cycle : cycle_stats array;  (** index = clock cycle 0-7 *)
  attempts_per_cycle : int;  (** derived from the sweep: 9,801 *)
  sweep1 : sweep;
}

val run_table1 :
  ?pool:Runtime.Pool.t -> ?config:Susceptibility.config -> guard -> table1
(** With [pool], the 8 per-cycle sweeps run on worker domains, each
    against a private board backed by the one shared {!boot}; every
    attempt restores the same trigger snapshot, so the table is
    bit-identical to the sequential run. Likewise for {!run_table2}
    and {!run_table3}. *)

type table2 = {
  guard2 : guard;
  partial : int array;  (** first glitch only, per cycle *)
  full : int array;  (** both glitches, per cycle *)
  attempts2 : int;  (** derived: total attempts across the 8 cycles *)
  sweep2 : sweep;
}

val run_table2 :
  ?pool:Runtime.Pool.t -> ?config:Susceptibility.config -> guard -> table2

type table3 = {
  guard3 : guard;
  windows : (int * int) list;
      (** [(last_cycle, successes)] for glitches covering cycles 0-10
          through 0-20 *)
  attempts_per_window : int;  (** derived from the sweep: 9,801 *)
  sweep3 : sweep;
}

val run_table3 :
  ?pool:Runtime.Pool.t -> ?config:Susceptibility.config -> guard -> table3

val full_parameter_sweep :
  ?config:Susceptibility.config ->
  rig ->
  make_schedule:(width:int -> offset:int -> Glitcher.params list) ->
  classify:(Board.t -> Glitcher.observation -> unit) ->
  sweep
(** Run one attempt per (width, offset) in [-49, 49]^2 from the rig's
    trigger snapshot. [classify] sees the post-mortem board. *)

val escaped : Board.t -> Glitcher.observation -> bool
(** Did the run reach the escape marker ([r0 = 0xAA] at a breakpoint)? *)
