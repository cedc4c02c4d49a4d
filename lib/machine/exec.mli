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

val execute : Memory.t -> Cpu.t -> Thumb.Instr.t -> step_result
(** [execute mem cpu i] executes the already-decoded [i] as if it were
    located at [Cpu.pc cpu], updating registers, flags, memory and the
    PC. Used directly by the pipeline simulator to run corrupted
    instructions without writing them back to flash. *)

val step : ?fetch:(int -> int option) -> Memory.t -> Cpu.t -> step_result
(** Fetch the halfword at [Cpu.pc], decode via the shared pre-decoded
    [Thumb.Decode.table], {!execute}. [fetch] may override the memory
    image for a given address (used for transient fetch-stage
    corruption); returning [None] falls back to memory. *)

val run : ?fetch:(int -> int option) -> ?max_steps:int ->
  Memory.t -> Cpu.t -> stop
(** Step until the program stops, at most [max_steps] (default 10,000)
    instructions. *)
