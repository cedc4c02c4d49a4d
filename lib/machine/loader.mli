(** The address geometries of the emulated targets, and a convenience
    harness: map a flash + SRAM address space, load a program, and
    produce a ready-to-run CPU. Every base and size an engine maps comes
    from a {!layout} here. *)

type layout = {
  flash_base : int;
  flash_size : int;
  sram_base : int;
  sram_size : int;
  stack_top : int;
}

val stm32_layout : layout
(** Flash at [0x08000000] (128 KiB), SRAM at [0x20000000] (16 KiB),
    initial SP [0x20003FF0] — chosen so the paper's observed
    SP-derived corruption values ([0x20003FE8], [0x20003FF6]) are
    plausible stack addresses. The board, the linker and whole-image
    exhaust campaigns all use it. *)

val snippet_layout : layout
(** The same bases with 1 KiB of flash and SRAM, stack 16 bytes below
    the top: the small, cheap-to-reset rig of the Figure 2 sweeps (Thumb
    and RV32I) and of single-case exhaust campaigns. *)

type t = { mem : Memory.t; cpu : Cpu.t; layout : layout }

val load_instrs : ?layout:layout -> Thumb.Instr.t list -> t
(** Map the layout, place the encoded program at [flash_base], point the
    CPU at it with SP = [stack_top]. *)

val load_asm : string -> t
(** [load_instrs] of [Thumb.Asm.assemble], on {!stm32_layout}. *)

val patch_word : t -> index:int -> int -> unit
(** Overwrite the halfword at instruction [index] (mask-based glitch
    injection, as the emulation framework does). *)
