(** Experiment drivers for the real-world glitching study (Section V):
    the three branch guards of Table I, the back-to-back multi-glitch
    loops of Table II, and the long-glitch sweep of Table III, on the
    board-attack kernel the defended-firmware evaluation (Table VI) and
    the parameter tuner share.

    Each attempt rewinds the board to a snapshot taken at the firmware's
    first trigger edge (through the board's write journal, in time
    proportional to the bytes the previous attempt dirtied), arms the
    glitch, and classifies the run. The rewind is observationally
    identical to the ChipWhisperer workflow of power-cycling before
    every attempt (the boot up to the trigger is deterministic and no
    glitch window can arm before the first edge exists), but skips
    re-emulating it 9,801 times per sweep. *)

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

type boot
(** The shareable product of booting a program: the board run
    glitch-free to its first trigger edge, the snapshot taken there,
    the recorded unglitched continuation ({!Glitcher.baseline}), and
    the per-attempt cycle budget. Snapshot and baseline are deep copies
    that are only read afterwards, so one [boot] may back rigs on many
    worker domains concurrently: the boot emulation and baseline
    recording happen once per sweep, not once per worker. *)

exception No_trigger
(** Raised by {!boot} when the program never raises its trigger within
    the boot budget. *)

val boot : ?max_cycles:int -> ?after_trigger:int -> Board.program -> boot
(** Load the program, run it to its first trigger edge within
    [max_cycles] (default 300), snapshot, and record the baseline.
    Attempts on this boot run until board cycle [max_cycles], or until
    [after_trigger] cycles past the trigger edge when given (firmware
    whose boot length depends on its defenses). *)

val boot_once : ?max_cycles:int -> string -> boot
(** [boot ?max_cycles (Board.Asm source)]: the Tables I-III guard
    programs, with [max_cycles] both the boot and the attempt budget. *)

type rig
(** One worker's private board on a shared {!boot}, with the running
    cost of its attempts. Every attempt starts from the boot's trigger
    snapshot instead of a power-on reset. *)

val rig_of_boot : boot -> rig
(** A rig on a {e fresh} board (assemble + load only, no emulation),
    {!Board.seal}ed on the boot's trigger snapshot: the one whole-image
    copy the rig ever makes. *)

val attempt : ?nonce:int -> rig -> Glitcher.params list -> Glitcher.observation
(** One glitch attempt from the rig's trigger snapshot ({!Board.rewind},
    undoing the previous attempt's journal), with its dead-schedule
    baseline armed, counted in the rig's {!tally}. *)

val attempt_point :
  rig -> Glitcher.params array -> width:int -> offset:int ->
  Glitcher.observation
(** [attempt_point rig shape ~width ~offset] is {!attempt} [rig] on
    [shape] with every entry at ([width], [offset]), through
    {!Glitcher.run_point}: the parameter sweeps' entry point, which
    builds no schedule and boxes no optional argument per attempt. *)

val rig_board : rig -> Board.t
(** The rig's board, for post-mortem inspection after {!attempt}. *)

(** What a sweep cost: attempts issued, cycles actually emulated,
    cycles served by rewinding (boot replay + dead-schedule cutoff)
    that the reset-per-attempt workflow would have emulated, and boots
    performed.

    The emulated and replayed columns are frozen by the benchmark: a
    cycle counts as emulated exactly when it was stepped instruction by
    instruction ({!Glitcher.observation}). Making a stepped cycle
    cheaper changes neither column; a shortcut that skips stepping
    (a recurrence cutoff or memo for the plain tails, or one prefix
    shared by nested windows) books its cycles as replayed, so it waits
    on a change that re-freezes the split. *)
type sweep = {
  attempts : int;
  emulated_cycles : int;
  replayed_cycles : int;
  tail_cycles : int;
      (** of [emulated_cycles], those attempts ran in
          {!Board.run_plain} after every window had closed (the plain
          tails): a count of the attempts' own work, independent of the
          host and of the job count *)
  boots : int;
}

val sweep_zero : sweep
val sweep_add : sweep -> sweep -> sweep

val tally : rig -> sweep
(** The cost of every {!attempt} made on the rig so far ([boots] 0). *)

val map_items :
  ?pool:Runtime.Pool.t -> boot:boot -> (rig -> 'a -> 'b) -> 'a array ->
  'b array * sweep
(** [f rig item] for every item, claimed one at a time by the workers of
    [pool] (one worker in the caller without a pool), each on its own
    rig backed by [boot]. Results come back by index with the summed
    tallies of all rigs ([boots] 1); both are bit-identical at every
    job count because every attempt rewinds to the same snapshot. *)

val sweep_perf :
  label:string -> ?pool:Runtime.Pool.t -> sweep -> float -> Stats.Perf.t
(** The PERF record of a sweep that took [elapsed_s] on [pool]:
    [attempts] as items, then [booted_cycles] (emulated),
    [replayed_cycles], [replay_rate] and [tail_cycles]. *)

(** One Table I cell: successes at a given cycle with the post-mortem
    comparator histogram. *)
type cycle_stats = { successes : int; values : (int * int) list }

type table1 = {
  guard : guard;
  per_cycle : cycle_stats array;  (** index = clock cycle 0-7 *)
  attempts_per_cycle : int;  (** derived from the sweep: 9,801 *)
  sweep1 : sweep;
}

val run_table1 : ?pool:Runtime.Pool.t -> guard -> table1
(** The 8 per-cycle sweeps run through {!map_items} on one {!boot}, so
    the table is bit-identical at every job count. Likewise for
    {!run_table2} and {!run_table3}. *)

type table2 = {
  guard2 : guard;
  partial : int array;  (** first glitch only, per cycle *)
  full : int array;  (** both glitches, per cycle *)
  attempts2 : int;  (** derived: total attempts across the 8 cycles *)
  sweep2 : sweep;
}

val run_table2 : ?pool:Runtime.Pool.t -> guard -> table2

type table3 = {
  guard3 : guard;
  windows : (int * int) list;
      (** [(last_cycle, successes)] for glitches covering cycles 0-10
          through 0-20 *)
  attempts_per_window : int;  (** derived from the sweep: 9,801 *)
  sweep3 : sweep;
}

val run_table3 : ?pool:Runtime.Pool.t -> guard -> table3

val escaped : Board.t -> Glitcher.observation -> bool
(** Did the run reach the escape marker ([r0 = 0xAA] at a breakpoint)? *)
