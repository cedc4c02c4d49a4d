(** Conditional-branch duplication (Section VI-B): on the {e true} edge
    of every conditional branch, re-verify the condition before letting
    execution continue. The re-check replicates the instructions that
    computed the comparison (volatile loads and call results excepted)
    and evaluates the {e complemented} form — [if (a == 5)] is
    re-checked as [if (~a == ~5)] — so the same unidirectional bit flips
    applied twice cannot satisfy both encodings. A failed re-check is a
    logical impossibility and calls the detector. *)

type report = { branches_instrumented : int }

val instrument_edge :
  Ir.func ->
  Pass.fresh ->
  (int, Ir.instr) Hashtbl.t ->
  shadows:(int, int) Hashtbl.t ->
  block:Ir.block ->
  edge:[ `True | `False ] ->
  Ir.block list
(** Build the re-check on one edge of [block]'s conditional terminator
    (re-pointing the terminator); returns the new blocks to append.
    Shared with the loop-guard pass. [shadows] memoizes per-function
    complemented shadows ({!Pass.shadow_for}) of operands the cloner
    reuses verbatim; the check cross-validates each reused temp against
    its shadow so a single corrupted word that decodes into a frame
    store cannot both skip the primary test and feed the re-check a
    consistent forged value. *)

val run : Config.reaction -> Ir.modul -> report
