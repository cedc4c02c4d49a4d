(** The ChipWhisperer stand-in: drives the target's clock and inserts
    glitches at programmed points relative to the trigger pin.

    Parameters mirror the real tool: [ext_offset] counts clock cycles
    from a trigger edge, [width] and [offset] shape the inserted clock
    edge as percentages in [-49, +49] (Figure 1), and [repeat] stretches
    the glitch over multiple consecutive cycles (the long-glitch attack
    of Table III). A schedule may arm several glitches, each on its own
    trigger edge — the multi-glitch attack of Table II uses two entries
    with identical parameters on triggers 0 and 1. *)

type params = {
  width : int;  (** [-49, 49] *)
  offset : int;  (** [-49, 49] *)
  ext_offset : int;  (** cycles after the trigger edge *)
  repeat : int;  (** number of consecutive glitched cycles, >= 1 *)
  trigger_index : int;  (** which rising edge arms this glitch (0-based) *)
}

val single : width:int -> offset:int -> ext_offset:int -> params
val with_repeat : params -> int -> params

type observation = {
  stop : [ `Stopped of Machine.Exec.stop | `Timeout ];
  cycles : int;  (** total cycles on the board at stop *)
  fired : int;  (** glitched cycles that actually produced a fault *)
  glitched_cycles : int;  (** cycles that fell inside an armed window *)
  replayed_cycles : int;
      (** of [cycles], how many were served by rewinding (the
          pre-trigger boot when running [~from], plus the dead-schedule
          tail when a [baseline] cut the attempt short) rather than
          emulated instruction by instruction *)
  tail_cycles : int;
      (** of the emulated cycles, how many ran in {!Board.run_plain}
          after every window had closed with nothing planted (the
          plain tail) *)
}

val active_window :
  params list -> int list -> start:int -> duration:int -> (params * int) option
(** Does any armed window overlap cycles [start, start + duration)?
    [edges] are the trigger-edge cycle stamps, oldest first. Returns the
    window containing the earliest overlapping {e absolute} cycle plus
    that cycle's position relative to the window's own trigger edge.
    Exposed for the multi-trigger tie-break regression test. *)

type baseline
(** The unglitched continuation from a trigger snapshot: the bytes it
    wrote with their end values and its end registers ({!Board.delta}),
    stop reason, final cycle count, and how many trigger edges ever
    fire. Lets {!run} cut an attempt short the moment its schedule is
    provably dead — no fault applied, nothing pending, every window
    closed or waiting on an edge that never comes — by writing that
    delta, which is bit-identical to emulating the rest. *)

val baseline : ?max_cycles:int -> Board.t -> from:Board.snapshot -> baseline
(** {!Board.seal} the board on [from], run it glitch-free to completion
    (or [max_cycles], default 3,000) and record the outcome, reading the
    write set from the seal's journal. The board is left sealed on
    [from]. The resulting baseline is only valid for {!run} calls with
    the same [from] and the same [max_cycles] (checked;
    [Invalid_argument] otherwise). *)

val run :
  ?max_cycles:int ->
  ?nonce:int ->
  ?from:Board.snapshot ->
  ?baseline:baseline ->
  Board.t ->
  params list ->
  observation
(** Reset the board (or {!Board.rewind} it to [from]: through the
    journal when the board is sealed on [from]) and run it to completion
    (or [max_cycles] total board cycles, default 3,000) with the
    schedule armed. [nonce] separates repeated attempts with identical
    parameters (attempt-level noise). The board is left un-reset for
    post-mortem inspection.

    [baseline] enables the dead-schedule cutoff: once execution is
    provably identical to the unglitched run forever after, the recorded
    end state is written ({!Board.apply_delta}) instead of emulated.
    Observations (and the post-mortem board) are bit-identical with or
    without it; only [replayed_cycles] reflects the shortcut. Without
    that cutoff, once nothing is planted and every window is anchored to
    a trigger edge already seen and has closed, no fault can apply any
    more and the attempt finishes as {!Board.run_plain}; those cycles
    count as emulated, and as [tail_cycles].

    The two columns are a contract: [replayed_cycles] are cycles
    served without stepping (a rewind or a written delta), and every
    other cycle was stepped one instruction at a time. A shortcut that
    skips stepping part of an attempt therefore books those cycles as
    replayed and moves cycles between the columns. The benchmark
    freezes both columns, so such a shortcut waits on a benchmark
    change that re-freezes them; making a stepped cycle cheaper does
    not. *)

val run_point :
  max_cycles:int ->
  nonce:int ->
  from:Board.snapshot ->
  baseline:baseline ->
  Board.t ->
  params array ->
  width:int ->
  offset:int ->
  observation
(** [run_point ~max_cycles ~nonce ~from ~baseline board shape ~width
    ~offset] is {!run} with the same arguments on the schedule [shape]
    with every entry's [width] and [offset] replaced by the given ones,
    without building that schedule: a parameter sweep builds [shape]
    once and reuses it for every point, and an attempt allocates
    nothing of its own but the observation. *)
