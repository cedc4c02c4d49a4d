(** The simulated target board: an STM32F0-class Cortex-M0 with flash,
    SRAM, a cycle counter (the DWT role), and a GPIO port whose pin the
    firmware raises as the glitcher's trigger — the paper's experimental
    setup, with the ChipWhisperer replaced by {!Glitcher}.

    A board is created once per experiment. A standalone board is
    [reset] (memory cleared, image rewritten) or [restore]d from a
    whole-image snapshot between attempts, the simulated power cycle.
    An attack rig instead {!seal}s its board on the trigger snapshot
    once: from then on every RAM store is journaled, and {!rewind}
    returns to the snapshot in time proportional to the bytes the
    attempt dirtied. The dead-schedule cutoff jumps to the recorded
    unglitched end state the same way, by writing the baseline's
    {!delta} through the journal. *)

type program =
  | Asm of string  (** hand-written guard loops (Tables I-III) *)
  | Image of Lower.Layout.image  (** linked firmware (Tables IV-VI) *)

type t

val gpio_base : int
(** [0x48000000], the base of the 256-byte GPIO device holding the
    trigger data register [Lower.Codegen.gpio_trigger_address]. *)

val create : program -> t
(** The SP starts at the image's own [stack_top] for an [Image] (the SP
    the exhaust and absint legs start the same firmware with) and at
    [0x20003FE8], the SP the paper reports, for an [Asm] program. The
    256 bytes below it are pre-filled with a deterministic non-zero
    byte pattern, standing in for the boot garbage a real SRAM holds:
    corrupted address loads then return varied values (the Table VI
    goldens depend on it). *)

val reset : t -> unit
(** Back to power-on state: zeroed RAM (plus stack fill), reloaded
    image, PC at the entry point, cycle counter and trigger log
    cleared. *)

val cycles : t -> int
val pc : t -> int
val reg : t -> int -> int

val trigger_edges : t -> int list
(** Cycle stamps of rising edges on the trigger pin, oldest first. Each
    stamp is the cycle at which the instruction after the store begins,
    i.e. the paper's "trigger exactly 1 clock cycle before the targeted
    instruction". *)

val edge_count : t -> int
(** [List.length (trigger_edges t)], in O(1). *)

val edge : t -> int -> int
(** [edge t i = List.nth (trigger_edges t) i], in O(1).
    @raise Invalid_argument unless [0 <= i < edge_count t]. *)

val read_global : t -> string -> int option
(** For [Image] programs: current value of a firmware global. *)

val symbol : t -> string -> int option
(** For [Image] programs: address of a function symbol. *)

(** Fault applied to a single step, already concretised by the glitcher. *)
type applied =
  | Normal
  | As_nop  (** instruction replaced by a NOP *)
  | Fetch_word of int  (** this encoding executes instead *)
  | Load_value of int  (** load executes; destination forced to value *)
  | Load_mangle of { width : int; offset : int; cycle : int }
      (** load executes; destination passed through
          {!Susceptibility.corrupt_value32} at that glitch point *)
  | Z_flip  (** Z inverted after the instruction *)
  | Pc_set of int  (** program counter latch overwritten *)

val fetch : t -> Thumb.Instr.t
(** Decode the instruction at the PC without executing it: a cycle's
    one fetch, which {!step_fetched} then executes.
    @raise Machine.Memory.Fault when the PC is unmapped. *)

val peek : t -> (Thumb.Instr.t, Machine.Exec.stop) result
(** {!fetch}, with an unmapped PC as [Error (Bad_fetch pc)]. *)

val word_at : t -> int -> int option
(** Raw halfword at an address (pipeline decode/fetch stage contents). *)

val instr_duration : t -> Thumb.Instr.t -> int
(** Cycles the instruction will consume if stepped unglitched from the
    current state: conditional branches are resolved against the live
    flags, so a not-taken branch counts 1 cycle, not 3. Agrees exactly
    with the cycle counter's post-hoc accounting; the glitcher uses it
    to test window overlap against cycles that actually elapse. *)

val step : ?applied:applied -> t -> Machine.Exec.step_result
(** Execute one instruction under the given fault, advancing the cycle
    counter by the Cortex-M0 cost of what actually executed: {!fetch},
    then {!step_fetched}, with an unmapped PC stopping as [Bad_fetch]. *)

val step_fetched : t -> applied -> Thumb.Instr.t -> Machine.Exec.step_result
(** [step_fetched t applied instr] is {!step} [~applied t] for the
    [instr] that {!fetch} [t] just returned, without fetching again.
    Allocates nothing for a [Normal] step that does not stop. *)

val run_plain : ?max_cycles:int -> t -> [ `Stopped of Machine.Exec.stop | `Timeout ]
(** Glitch-free execution (baseline measurements, Table IV): {!step}
    until the program stops or the board reaches [max_cycles] cycles
    (default 1,000,000), with the same stop, cycle count, trigger
    edges and state. *)

val run_plain_to : t -> int -> [ `Stopped of Machine.Exec.stop | `Timeout ]
(** [run_plain_to t max_cycles] is [run_plain ~max_cycles t], without
    boxing the optional argument. *)

val run_until_trigger : ?max_cycles:int -> t -> bool
(** Run glitch-free until the first trigger edge fires; true on
    success. Used to fast-forward through (expensive, deterministic)
    boot code before snapshotting. *)

type snapshot

val snapshot : t -> snapshot
(** Full board state: RAM, registers, cycle counter, trigger log. *)

val restore : t -> snapshot -> unit
(** Rewind to a snapshot by whole-image copy — the fast equivalent of a
    power cycle plus deterministic re-run for attack campaigns whose
    pre-trigger boot takes hundreds of thousands of cycles
    (flash-commit in the delay defense). On a sealed board, this and
    {!reset} bypass the journal: they detach it, and the next {!rewind}
    re-copies the sealed snapshot in full once before journaling
    again. *)

(** {2 Journaled rewind}

    The attack rigs' restore path, on a {!Machine.State} tracker over
    the write journal of {!Machine.Memory}. *)

val seal : t -> snapshot -> unit
(** Restore [snap] in full once, then journal every RAM store so that
    {!rewind} [t snap] costs only the bytes written since. [snap] is
    only read, so one snapshot may seal boards on many domains. *)

val rewind : t -> snapshot -> unit
(** Back to [snap]: undo the journal and copy the registers, flags,
    cycle count, trigger log and GPIO state when [t] is sealed on [snap]
    (physically); a whole-image {!restore} otherwise. *)

val journal_length : t -> int
(** Journal entries since the last rewind of a sealed board (0 when
    unsealed, or detached by a reset or restore). *)

type delta
(** What a sealed board wrote since its seal: each written address once,
    with its sealed and current byte, plus the current registers,
    flags, cycle count, trigger log and GPIO state. *)

val delta : t -> delta
(** Capture the write set of a sealed board's journal.
    @raise Invalid_argument if [t] is not sealed with a live journal. *)

val written : delta -> int array
(** The delta's write set, packed as {!Machine.State.written}. *)

val apply_delta : t -> delta -> unit
(** Write every byte of the delta's write set (through the journal, when
    one is attached) and copy its scalars. On a board that holds the
    sealed snapshot plus any prefix of the writes the delta was captured
    from, this yields exactly the captured state — including a byte the
    run wrote and later wrote back to its sealed value. *)
