(** Linker and image layout.

    Text is placed at the STM32 flash base, globals in SRAM: initialised
    globals form [.data], zero-initialised ones [.bss] (the section
    split Table V reports). BL and literal-pool relocations are patched
    here; the magic symbol [__gpio] resolves to the GPIO trigger
    register rather than to a RAM cell. *)

type section = { base : int; size : int }

type image = {
  words : int array;  (** the .text halfwords, crt0 first *)
  text : section;
  data : section;
  bss : section;
  data_init : (int * int) list;  (** address, initial word value *)
  symbols : (string * int) list;  (** function symbol -> byte address *)
  global_addrs : (string * int) list;  (** global name -> byte address *)
  entry : int;
  stack_top : int;
}

type error = { message : string }

exception Error of error

val pp_error : error Fmt.t

val text_base : int
val sram_base : int
val sram_size : int
(** The flash base and the SRAM region of [Machine.Loader.stm32_layout],
    where {!link} places text and globals. *)

val text_bytes : image -> bytes
(** The .text halfwords as little-endian bytes, to load at [text.base]. *)

val owner_index : int array -> int -> int
(** The index of the greatest of the ascending [entries] at or below
    [addr] (the last of equal ones), or [-1]: the symbol owning [addr].
    Every owner lookup uses it. *)

val link : Ir.modul -> image
(** Compile every IR function with {!Codegen}, add the runtime blob and
    crt0, lay out sections, and resolve all relocations.
    @raise Error on undefined symbols or BL targets out of range. *)

val write_to : Machine.Memory.t -> image -> unit
(** Copy .text and .data initialisers into already-mapped memory.
    @raise Invalid_argument if .text falls outside it. *)

val load : image -> Machine.Loader.t
(** Convenience for tests: a plain machine (no GPIO device; stores to
    the trigger register fault) ready to run at [entry]. *)

val size_report : image -> (string * int) list
(** [("text", bytes); ("data", bytes); ("bss", bytes); ("total", ...)] —
    the row format of Table V. *)
