(** An executable related-work baseline: CFCSS-style control-flow
    checking by software signatures (Oh, Shirvani & McCluskey, 2002 —
    row "CFCSS" of Table VII).

    Every basic block gets a unique signature; a volatile runtime
    signature variable is checked on block entry against the signatures
    of the block's legal predecessors and then updated. Arriving from
    anywhere else (a corrupted branch target, a PC glitched into the
    middle of a function) is detected.

    The instructive limitation — the reason Table VII shows CFCSS
    lacking most of GlitchResistor's properties — is that a glitch
    flipping a branch's *direction* moves along a legal edge and is
    invisible to signature checking. The ablation benchmark
    demonstrates this: CFCSS alone barely reduces the guard-skipping
    success rate that GlitchResistor's duplication passes eliminate. *)

type report = {
  blocks_signed : int;
  checks_inserted : int;
}

val signature_global : string
(** ["__cfcss_G"], the volatile runtime signature variable. *)

val run : Config.reaction -> Ir.modul -> report
(** Instrument every function; detections call the same
    [__gr_detected] hook as GlitchResistor's own checks. The driver
    runs it for {!Config.Cfcss}, after the paper passes and before the
    post-paper CFI passes. *)
