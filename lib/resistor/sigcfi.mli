(** FIPAC-flavoured running-signature CFI (post-paper extension).

    A keyed GF(2^8) accumulator ({!state_global}) is threaded through
    the control-flow graph: every edge is split and updated with
    [S := step(S) xor patch] where [step] is multiplication by the
    field generator and the patch constants are derived at compile time
    from keyed per-block MACs ({!signature}), so only a legal edge
    turns the predecessor's signature into the successor's.  Returns
    are sink-checked against the current block's signature and route
    mismatches into {!Detect}.  Like CFCSS, a glitch flipping a legal
    branch *direction* stays invisible; unlike CFCSS, skipping or
    re-ordering blocks anywhere along an activation corrupts the
    running state until the next sink. *)

type report = {
  blocks_signed : int;
  updates_inserted : int;  (** edge-split state-update blocks *)
  checks_inserted : int;  (** sink (return) checks *)
  key : int;
}

val state_global : string
(** Name of the volatile accumulator global ("__sigcfi_S"). *)

val step_fn : string
(** Name of the out-of-line update helper ("__gr_sigcfi_step"): glue
    blocks call it with the edge's compile-time patch constant. *)

val default_key : int
(** The nonzero byte {!run} keys every build with. *)

val step : int -> int
(** GF(2^8) multiply-by-alpha (poly 0x11D); the compile-time twin of
    the branchless IR update sequence. *)

val signature : key:int -> string -> string -> int
(** [signature ~key fname label]: keyed polynomial MAC in [0, 255]. *)

val run : Config.reaction -> Ir.modul -> report
(** Instrument every function (except the detector) under
    {!default_key}; verifies the module. *)
