(** Single-step Thumb-16 executor with glitch-friendly outcome
    classification (the Unicorn substitute).

    The executor never raises on bad guest behaviour: unmapped or
    misaligned accesses, undecodable instructions, traps, and runaway
    execution are all reported as {!stop} values, mirroring the outcome
    taxonomy of the paper's emulation framework (Section IV). *)

type stop =
  | Breakpoint of int  (** [BKPT imm] executed — normal harness exit. *)
  | Swi_trap of int  (** [SWI imm] executed. *)
  | Bad_read of int  (** data load from an unmapped/misaligned address *)
  | Bad_write of int  (** data store to an unmapped/misaligned address *)
  | Bad_fetch of int  (** instruction fetch from unmapped memory (e.g. a corrupted PC) *)
  | Invalid_instruction of int  (** fetched word has no Thumb decoding *)
  | Step_limit  (** [run] exhausted its step budget *)

val pp_stop : stop Fmt.t

val stop_of_string : string -> stop option
(** The inverse of {!pp_stop}: [Some stop] exactly when the string is
    [pp_stop]'s rendering of [stop]. *)

val stop_equal : stop -> stop -> bool

type step_result = Running | Stopped of stop

(** {2 Register file}

    The rules for reading and writing a {!Cpu.t}. They live here, beside
    the executor that applies them once or more per instruction, so that
    without cross-module inlining (dune's dev profile compiles with
    [-opaque]) an operand read is an array load, not a call into another
    module. *)

val get : Cpu.t -> Thumb.Reg.t -> int
(** Operand read: [pc] reads as the current instruction address + 4. *)

val set : Cpu.t -> Thumb.Reg.t -> int -> unit
(** Result write, masked to 32 bits. Writing [pc] clears bit 0. *)

val pc : Cpu.t -> int
(** Raw current instruction address (no +4 adjustment). *)

val set_pc : Cpu.t -> int -> unit
(** Branch write: masked to 32 bits, bit 0 cleared. *)

val condition_holds : Cpu.t -> Thumb.Instr.cond -> bool
(** Evaluate a branch condition against the NZCV flags. *)

val execute : Memory.t -> Cpu.t -> Thumb.Instr.t -> step_result
(** [execute mem cpu i] executes the already-decoded [i] as if it were
    located at [pc cpu], updating registers, flags, memory and the
    PC. Used directly by the pipeline simulator to run corrupted
    instructions without writing them back to flash. *)

exception Stop_exn of stop

val execute_exn : Memory.t -> Cpu.t -> Thumb.Instr.t -> step_result
(** {!execute} without its handler: a faulting data access raises
    [Stop_exn (Bad_read a)] or [Stop_exn (Bad_write a)] instead of
    returning [Stopped], after any access of the same instruction that
    preceded it took effect. For loops that run many instructions under
    one handler. *)

val decode : zero_is_invalid:bool -> int -> Thumb.Instr.t
(** The instruction a fetched halfword executes as, from the shared
    pre-decoded [Thumb.Decode.table]. With [zero_is_invalid] (Figure
    2(c)'s ISA change) [0x0000] decodes as [Undefined 0], so {!execute}
    stops it with [Invalid_instruction 0] and changes nothing, instead
    of running it as [movs r0, r0]. This is the one home of that rule. *)

val step : ?zero_is_invalid:bool -> Memory.t -> Cpu.t -> step_result
(** Fetch the halfword at {!pc}, {!decode} it ([zero_is_invalid]
    defaults to [false]), {!execute} it. An unmapped or misaligned fetch
    stops with [Bad_fetch]. *)

val run :
  ?zero_is_invalid:bool -> ?max_steps:int -> Memory.t -> Cpu.t -> stop
(** {!step} until the program stops, at most [max_steps] (default
    10,000) instructions, else [Step_limit]. The loop allocates nothing,
    but without cross-module inlining (dune's dev profile) each
    [~label:v] boxes [Some v] per call: sweep kernels box them once. *)

type watch = { ck : Cpu.t; mutable left : int }
(** A checkpoint for {!run_watch} ([ck]: registers and flags) and where
    it reports a landing on it. *)

val run_watch :
  zero_is_invalid:bool -> max_steps:int -> watch -> Memory.t -> Cpu.t -> stop
(** {!run} on the same loop, watching for the checkpoint [watch.ck]: a
    step that leaves the pc at [ck]'s pc (one compare per step) and the
    other registers and the flags as in [ck] ends the run early with
    [Step_limit] and sets [watch.left] to the steps still unspent,
    [>= 0]. A run that ends any other way leaves [watch.left = -1]. The
    first instruction is never a landing, so a run that starts at the
    checkpoint executes at least one step. Memory is not compared: this
    is the register half of {!State.run_cutoff}'s recurrence test. *)
