(** The detection runtime (Section VI-B "Detection Reaction"): a module
    gains one counter global and one [__gr_detected] function that every
    injected check calls when a logically-impossible state is observed.
    The reaction is configurable; the paper leaves it to the developer
    (report, disable updates, destroy data, ...). *)

val detected_fn : string
(** ["__gr_detected"]. *)

val counter_global : string
(** ["__gr_detect_count"]; non-zero after any detection. *)

val arm : string -> next:string -> Ir.block
(** [arm label ~next] is the detector arm of a check: a block that
    calls {!detected_fn} and continues at [next]. *)

val is_call : Ir.instr -> bool
(** A call to {!detected_fn}. *)

val matches : Pass.fresh -> string -> int -> Ir.instr list * Ir.value
(** [matches fresh global expected] loads [global] (volatile) and
    compares it with [expected]: the instructions and the 0/1 result. *)

val check_ret :
  Pass.fresh -> hint:string -> string -> int -> Ir.block -> Ir.block list
(** [check_ret fresh ~hint global expected b] makes the return of [b]
    conditional on [global = expected]: [b] now ends in the check, and
    the result is the ["<hint>.ret"] block holding the original
    terminator and the ["<hint>.bad"] detector arm in front of it, for
    the caller to place. *)

val ensure : Config.reaction -> Ir.modul -> unit
(** Add the counter and function to the module if not present. *)

val detections : (string -> int option) -> int
(** Given a global reader (e.g. [Hw.Board.read_global board]), the
    number of detections recorded. *)
