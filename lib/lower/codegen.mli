(** IR -> Thumb-16 code generation, -O0 style.

    Every local and temp gets a 4-byte stack slot; values are shuttled
    through [r0]-[r3]; 32-bit constants and global addresses come from a
    per-function PC-relative literal pool (the [LDR R3, =0xD3B9AEC6]
    idiom seen in the paper's Table I(c)). Calls follow a simplified
    AAPCS: up to four arguments in [r0]-[r3], result in [r0].

    Intrinsic callees expanded inline rather than called:
    - [__halt()] -> [BKPT #0] (end of program);
    - [__trigger_high()] / [__trigger_low()] -> GPIO store, the paper's
      perfect trigger;
    - [Sdiv]/[Srem] lower to calls to the runtime's [__idiv]/[__irem]
      (the Cortex-M0 has no divide instruction). *)

type compiled = {
  name : string;
  words : int array;  (** halfwords, literal pool included *)
  exports : (string * int) list;  (** symbol -> halfword offset *)
  bl_relocs : (int * string) list;
      (** halfword index of a [Bl_hi]/[Bl_lo] pair to patch *)
  word_relocs : (int * string) list;
      (** halfword index of a 32-bit literal holding a global's address *)
}

type error = { func : string; message : string }

exception Error of error

val pp_error : error Fmt.t

val gpio_trigger_address : int
(** [0x48000028], the GPIO data register the paper's trigger writes.
    The one GPIO constant: the board's GPIO device and the GPIO page of
    exhaust campaigns are placed around it. *)

val intrinsics : string list
(** Extern names expanded inline ([__halt], [__trigger_high],
    [__trigger_low]). *)

val func : Ir.modul -> Ir.func -> compiled
(** @raise Error when a function exceeds backend limits (too many stack
    slots, branch out of range, more than four call arguments). *)
