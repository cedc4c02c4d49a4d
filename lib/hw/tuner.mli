(** The paper's Section V-B parameter search: find glitch parameters
    with a 100% (10-out-of-10) success rate against an unprotected
    guard.

    The algorithm mirrors the paper: scan the (width, offset) plane with
    a 10-cycle glitch that blankets the whole loop; for each hit, narrow
    to individual clock cycles and re-test, recursively increasing
    precision until some (width, offset, ext_offset) triple survives 10
    consecutive attempts. *)

type result = {
  found : (int * int * int) option;  (** (width, offset, ext_offset) *)
  attempts : int;  (** total glitch attempts issued *)
  successes : int;  (** successful glitches observed along the way *)
  seconds : float;  (** simulated wall-clock, at [per_attempt_s] each *)
  emulated_cycles : int;  (** board cycles actually emulated *)
  replayed_cycles : int;  (** cycles served by trigger-snapshot replay *)
}

val per_attempt_s : float
(** 0.095 s — reset, arm, run, check; calibrated so an unprotected
    search lands in the paper's "minutes, not hours" regime. *)

val search : Attack.guard -> result
(** The initial plane scan strides 2 points in width and in offset. *)
