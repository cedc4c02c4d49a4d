(** Imperative construction API for IR functions, in the style of
    LLVM's IRBuilder: a cursor positioned at the end of a block, fresh
    temp and label allocation, and helpers for each instruction. *)

type t

val create : fname:string -> params:string list -> returns_value:bool -> t
(** Start a function with an empty entry block labelled ["entry"];
    parameters are registered as locals. *)

val func : t -> Types.func
(** The function under construction (shared, mutable). *)

val add_local : t -> string -> unit
(** Register a stack slot; repeat registrations are ignored. *)

val fresh_temp : t -> int
val fresh_label : t -> string -> string
(** [fresh_label t hint] is a unique label like ["hint.3"]. *)

val new_block : t -> string -> Types.block
(** Append a block with the given (already unique) label and move the
    cursor to it. The block initially ends in [Unreachable]. *)

val current_block : t -> Types.block

val load : ?volatile:bool -> t -> Types.var -> Types.value
val store : ?volatile:bool -> t -> Types.var -> Types.value -> unit
val binop : t -> Types.binop -> Types.value -> Types.value -> Types.value
val icmp : t -> Types.icmp -> Types.value -> Types.value -> Types.value
val call : t -> ?dst:bool -> string -> Types.value list -> Types.value option
(** [dst] defaults to false (no result temp). *)

val br : t -> string -> unit
val cond_br : t -> Types.value -> if_true:string -> if_false:string -> unit
val ret : t -> Types.value option -> unit

val switch :
  t -> Types.value -> cases:(int * string) list -> default:string -> unit
(** Terminator setters; each finalises the current block. *)
