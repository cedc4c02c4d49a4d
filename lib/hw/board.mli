(** The simulated target board: an STM32F0-class Cortex-M0 with flash,
    SRAM, a cycle counter (the DWT role), and a GPIO port whose pin the
    firmware raises as the glitcher's trigger — the paper's experimental
    setup, with the ChipWhisperer replaced by {!Glitcher}.

    A board is created once per experiment and [reset] between attempts
    (cheap: memory is cleared and the image rewritten), exactly like
    power-cycling the real target between glitch attempts. *)

type program =
  | Asm of string  (** hand-written guard loops (Tables I-III) *)
  | Image of Lower.Layout.image  (** linked firmware (Tables IV-VI) *)

type t

val gpio_base : int
(** [0x48000000]; the trigger data register lives at offset [0x28]. *)

val create : ?stack_top:int -> ?stack_fill:bool -> program -> t
(** [stack_top] defaults to [0x20003FE8] (the SP the paper reports).
    [stack_fill] (default true) pre-fills the stack area with a
    deterministic non-zero byte pattern, standing in for the boot
    garbage a real SRAM holds — corrupted address loads then return
    varied values, as observed in Table I. *)

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
  | Load_mangle of (int -> int)  (** destination passed through a corruption *)
  | Z_flip  (** Z inverted after the instruction *)
  | Pc_set of int  (** program counter latch overwritten *)

val peek : t -> (Thumb.Instr.t, Machine.Exec.stop) result
(** Decode the next instruction without executing. *)

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
    counter by the Cortex-M0 cost of what actually executed. *)

val run_plain : ?max_cycles:int -> t -> [ `Stopped of Machine.Exec.stop | `Timeout ]
(** Glitch-free execution (baseline measurements, Table IV). *)

val run_until_trigger : ?max_cycles:int -> t -> bool
(** Run glitch-free until the first trigger edge fires; true on
    success. Used to fast-forward through (expensive, deterministic)
    boot code before snapshotting. *)

type snapshot

val snapshot : t -> snapshot
(** Full board state: RAM, registers, cycle counter, trigger log. *)

val restore : t -> snapshot -> unit
(** Rewind to a snapshot — the fast equivalent of a power cycle plus
    deterministic re-run for attack campaigns whose pre-trigger boot
    takes hundreds of thousands of cycles (flash-commit in the delay
    defense). *)
