(** ARM Cortex-M-class CPU register state: [r0]-[r15] plus the NZCV
    application flags. All register values are 32-bit words stored in
    OCaml ints. The [pc] slot holds the address of the instruction being
    executed; reading [pc] as an operand yields [address + 4] per the
    Thumb pipeline-visible convention. That rule and the other
    register-file rules ([get], [set], [pc], [set_pc],
    [condition_holds]) live in {!Exec}, beside the executor. *)

type t = {
  regs : int array;  (** 16 words, indexed by register number. *)
  mutable n : bool;
  mutable z : bool;
  mutable c : bool;
  mutable v : bool;
}

val create : ?sp:int -> ?pc:int -> unit -> t

val reset : sp:int -> pc:int -> t -> unit
(** Restore the power-on state [create ~sp ~pc ()] builds, in place: all
    registers zero except [sp]/[pc], all flags clear. Lets sweep rigs
    reuse one CPU across millions of runs instead of allocating per run;
    the labels are mandatory so a call boxes no optional argument. *)

val copy : t -> t
val pp : t Fmt.t
