(** Tiny two-pass textual assembler for Thumb-16 snippets.

    Accepts the assembly dialect used throughout the paper's test cases:

    {v
        movs r3, #0
      loop:
        ldrb r3, [r3]
        cmp  r3, #0
        beq  loop
        movs r0, #0xAA
    v}

    One instruction or label per line; [;] and [@] start comments;
    immediates are decimal or [0x]-hex; branch targets may be labels or
    [#byte-offset] literals. Mnemonics cover the subset needed by the
    emulation test cases and the code generator (moves, ALU ops,
    loads/stores, push/pop, branches, [bl], [bx], [swi], [bkpt], [nop]). *)

type error = { line : int; message : string }

exception Parse_error of error

val pp_error : error Fmt.t

val assemble : string -> Instr.t list
(** [assemble src] parses and resolves labels, counting from the first
    instruction at offset 0.
    @raise Parse_error on syntax errors, unknown mnemonics, out-of-range
    immediates, or undefined/duplicate labels. *)

val assemble_words : string -> int list
(** {!assemble} followed by {!Encode.program}. *)

val assemble_with_labels : string -> Instr.t list * (string * int) list
(** Like {!assemble}, also returning each label's halfword offset —
    used by the linker to export symbols from hand-written runtime
    assembly. *)
