(** Control-flow-graph recovery over a linked Thumb image.

    A recursive-traversal disassembler (in the ARMORY style): start at
    the function symbols and the entry point, follow fall-through,
    branch and BL edges through the shared {!Thumb.Decode.table}, and
    mark the words referenced by reachable PC-relative loads as literal
    data.  Linear sweep would decode literal pools as code; traversal
    instead reports anything it could not reach or explain as an
    {!anomaly}. *)

type term_kind =
  | Fallthrough  (** split by a leader; control continues linearly *)
  | Jump  (** [b label] *)
  | Cond  (** [b<cc> label] — taken successor listed first *)
  | Return  (** [bx lr] or [pop {..., pc}] *)
  | Computed  (** [bx rm], writes to PC, lone BL suffix *)
  | Call_noreturn  (** dangling BL prefix ending the block *)
  | Halt  (** [bkpt] *)
  | Trap  (** [swi] *)
  | Invalid  (** reachable undefined encoding *)

type insn = { addr : int; word : int; instr : Thumb.Instr.t }

type block = {
  start : int;  (** byte address of the first instruction *)
  insns : insn list;
  succs : int list;  (** successor block addresses (taken edge first) *)
  calls : int list;  (** resolved BL targets inside this block *)
  term : term_kind;
}

type anomaly =
  | Unreachable_code of { addr : int; halfwords : int }
      (** covered by no traversal path and not a literal pool *)
  | Fallthrough_off of { addr : int }
      (** straight-line execution runs off the mapped image *)
  | Computed_target of { addr : int }
      (** an indirect transfer the static analysis cannot resolve *)
  | Target_outside of { addr : int; target : int }
  | Dangling_bl of { addr : int }  (** an unpaired BL half *)
  | Undecodable of { addr : int; word : int }
      (** reachable word with no Thumb-16 decoding *)

type fn = {
  name : string;
  entry : int;
  finish : int;  (** exclusive: next symbol or end of .text *)
  block_addrs : int list;
}

type t = {
  image : Lower.Layout.image;
  blocks : block list;  (** sorted by start address *)
  funcs : fn list;  (** sorted by entry address *)
  anomalies : anomaly list;  (** sorted by address *)
  code_halfwords : int;  (** reachable code *)
  data_halfwords : int;  (** literal-pool words *)
}

val of_image : Lower.Layout.image -> t

val owner : t -> int -> string option
(** Function owning an address: nearest symbol at or below it. Apply it
    to [t] once and reuse the result: [owner t] indexes the functions. *)

val find_fn : t -> string -> fn option
val block_at : t -> int -> block option

val reachable_insns : t -> insn list
(** Every reachable instruction, in address order. *)

val conditionals : t -> insn list
(** The conditional branches terminating blocks — the guard
    instructions the glitch-surface and lint layers reason about. *)

val anomaly_addr : anomaly -> int
val pp_anomaly : anomaly Fmt.t
val pp : t Fmt.t
