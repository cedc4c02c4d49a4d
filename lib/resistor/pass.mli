(** Shared infrastructure for GlitchResistor's IR passes: fresh temp and
    label allocation, use-def lookup, and the operand-chain cloner used
    by the redundancy passes. *)

type fresh

val fresh_for : Ir.func -> fresh
val temp : fresh -> int
val label : fresh -> string -> string
(** Unique labels of the form ["gr.<hint>.<n>"]. *)

val is_runtime_helper : string -> bool
(** Names starting with ["__gr"]: the runtime support the passes add
    (detector, delay, signature and domain helpers). *)

val ensure_global :
  Ir.modul -> string -> init:int -> volatile:bool -> unit
(** Append a non-sensitive global unless one of that name exists. *)

val ensure_func : Ir.modul -> string -> (unit -> Ir.func) -> unit
(** [ensure_func m name build] appends [build ()] unless [m] already
    has a function called [name]. *)

val ensure_extern : Ir.modul -> string -> unit
(** Declare a runtime-resolved callee unless already declared. *)

val attach :
  (string, Ir.block list) Hashtbl.t -> after:string -> Ir.block list -> unit
(** Queue blocks to follow the block labelled [after] (after any
    already queued for it). *)

val splice :
  (string, Ir.block list) Hashtbl.t -> Ir.block list -> Ir.block list
(** Put each queued block right after the block it was attached to.
    Keeping new blocks next to the block they serve, rather than at the
    end of the function, keeps branch spans short for codegen. *)

val def_map : Ir.func -> (int, Ir.instr) Hashtbl.t
(** Temp index -> defining instruction (temps are write-once). *)

type clone_result = {
  instrs : Ir.instr list;  (** replicated computation, in order *)
  value : Ir.value;  (** the replicated result *)
  replicated : bool;
      (** false if the chain had to reuse the original value because it
          reaches a volatile load, a call, or exceeds the depth bound *)
  reused : int list;
      (** the temps reused verbatim (first-use order). A checker that
          consumes the clone must cross-validate each against a shadow
          captured at definition time: at -O0 every temp lives in a
          stack slot, and a corrupted guard word can decode into a store
          that overwrites exactly the slot the re-check would read. *)
}

val clone_chain :
  fresh -> (int, Ir.instr) Hashtbl.t -> Ir.value -> clone_result
(** Replicate the computation producing a value with fresh temps
    (Section VI-B: "replicates any instructions that are needed to
    calculate the comparison"). Volatile loads and call results are not
    replicated — the original temp is reused, as in the paper. *)

val shadow_for :
  Ir.func ->
  fresh ->
  (int, Ir.instr) Hashtbl.t ->
  (int, int) Hashtbl.t ->
  int ->
  int option
(** [shadow_for f fresh defs shadows t] returns (creating on first use,
    memoized in [shadows]) the temp holding [t lxor 0xFFFFFFFF],
    materialized immediately after [t]'s definition. [None] when [t]
    has no defining instruction (parameter-by-convention). *)

val verify_or_fail : string -> Ir.modul -> unit
(** Run the IR verifier after a pass; raise with the pass name on
    violation (pass bugs must never produce silently-broken firmware).
    Non-fatal [Ir.Verify.lint] findings (unreachable blocks,
    maybe-undefined temps) are accumulated instead of raised; the
    driver drains them with {!drain_warnings}. *)

val reset_warnings : unit -> unit
val collect_warnings : string -> Ir.modul -> unit
val drain_warnings : unit -> (string * Ir.Verify.violation) list
(** Pass-tagged lint findings since the last reset/drain, oldest
    first, deduplicated by (func, message). *)
