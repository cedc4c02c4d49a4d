(** A small LLVM-flavoured intermediate representation.

    Functions are graphs of basic blocks; every block ends in exactly one
    terminator. Program variables (globals, parameters and C locals)
    live in memory and are accessed through [Load]/[Store] — the
    [-O0 + mem2reg-less] style — while instruction results are
    write-once virtual registers ([Temp]). [volatile] marks accesses the
    GlitchResistor passes must not replicate and the code generator must
    not reorder or elide, exactly as in LLVM.

    All values are 32-bit words; signedness is carried by the operation
    (e.g. [Slt] vs [Ult]), not the type. *)

type var =
  | Global of string
  | Local of string  (** parameter or stack slot, per-function *)

type value =
  | Const of int  (** 32-bit, stored in [0, 0xFFFFFFFF] *)
  | Temp of int

type binop =
  | Add | Sub | Mul | Sdiv | Srem
  | And | Or | Xor | Shl | Lshr | Ashr

type icmp = Eq | Ne | Slt | Sle | Sgt | Sge | Ult | Ule | Ugt | Uge

type instr =
  | Load of { dst : int; src : var; volatile : bool }
  | Store of { dst : var; src : value; volatile : bool }
  | Binop of { dst : int; op : binop; lhs : value; rhs : value }
  | Icmp of { dst : int; op : icmp; lhs : value; rhs : value }
      (** [dst] receives 0 or 1. *)
  | Call of { dst : int option; callee : string; args : value list }

type terminator =
  | Br of string
  | Cond_br of { cond : value; if_true : string; if_false : string }
  | Switch of { value : value; cases : (int * string) list; default : string }
      (** LLVM's SwitchInst: first matching case wins, else default. *)
  | Ret of value option
  | Unreachable

type block = {
  label : string;
  mutable instrs : instr list;
  mutable term : terminator;
}

type func = {
  fname : string;
  params : string list;  (** locals that receive argument values on entry *)
  returns_value : bool;
  mutable locals : string list;  (** all stack slots, including params *)
  mutable blocks : block list;  (** head is the entry block *)
}

type global = {
  gname : string;
  init : int;
  volatile : bool;
  mutable sensitive : bool;
      (** marked by configuration for the data-integrity pass *)
}

type modul = {
  mutable globals : global list;
  mutable funcs : func list;
  mutable externs : string list;
      (** callees resolved by the runtime (board intrinsics, detection
          hooks) rather than by IR functions *)
}

val mask32 : int -> int
val to_signed : int -> int

val eval_binop : binop -> int -> int -> int
(** 32-bit semantics; division/remainder by zero yields 0 (the
    interpreter and the board runtime agree on this to keep defended and
    undefended programs comparable). *)

val eval_icmp : icmp -> int -> int -> int

val negate_icmp : icmp -> icmp
(** Logical complement: [Eq <-> Ne], [Slt <-> Sge], ... Used by the
    branch-duplication pass to build the opposite re-check. *)

val find_func : modul -> string -> func option
val find_block : func -> string -> block option
val find_global : modul -> string -> global option

val successors : terminator -> string list

val predecessors : func -> string -> string list
(** [predecessors f] builds the inverse of {!successors} once; applied
    to a label it lists the label of every block with an edge to it,
    once per edge, latest block first. Labels outside [f] may have
    predecessors too; a label nothing branches to has none. *)

type sccs = {
  nodes : block array;  (** the function's blocks, in order *)
  index : (string, int) Hashtbl.t;  (** label -> position in [nodes] *)
  succs : int list array;
      (** successor positions in {!successors} order, one per edge;
          labels outside the function are dropped *)
  comp : int array;
      (** strongly-connected component of each block: equal numbers
          iff the two nodes reach each other *)
  in_cycle : bool array;
      (** the block lies on a cycle: a component of two or more
          blocks, or a self-loop *)
}

val sccs : func -> sccs
(** Tarjan's strongly-connected components of the block graph. *)

val iter_instrs : func -> (block -> instr -> unit) -> unit

val max_temp : func -> int
(** Largest temp index used; -1 if none. *)

val pp_value : value Fmt.t
val pp_instr : instr Fmt.t
val pp_terminator : terminator Fmt.t
val pp_func : func Fmt.t
val pp_modul : modul Fmt.t
