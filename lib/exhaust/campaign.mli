(** Trace-wide exhaustive fault campaigns with state-hash pruning.

    Generalizes the snapshot-replay kernel from per-guard trigger edges
    (Hw.Attack) and the per-word sweep memo (Glitch_emu.Campaign) to
    entire firmware executions: every (cycle, fault model, mask) along
    the pristine baseline is an injection point. The perturbed word is
    executed in place of the fetched one (or written to flash in
    {!Persistent} mode), the machine runs a fixed settle budget, and
    the outcome is classified against the baseline.

    Pruning: the verdict is a pure function of the machine state right
    after the injected step (the classifier reads only the final state
    and per-run constants, and the settle budget is one per-run
    constant), so identical post-fault states share one continuation
    through a {!Runtime.Keymap} keyed on canonical {!State} keys —
    exact serializations, so sharing can never merge distinct states.
    Baseline states are pre-seeded when their verdict is provable
    without running. All sharing flows through the one shared map, so
    verdict tables are bit-identical at any [--jobs]. *)

type verdict =
  | No_effect
  | Detected
  | Silent
  | Hang
  | Trap
  | Bad_read
  | Bad_write
  | Bad_fetch
  | Invalid

val verdicts : verdict list
val verdict_name : verdict -> string
val verdict_index : verdict -> int

val nverdicts : int
(** Width of every verdict-count table (16: the built-in taxonomy plus
    headroom for custom classifiers). *)

type spec = {
  name : string;
  code : bytes;
  flash_base : int;
  flash_size : int;
  rams : (int * int) list;
  data_init : (int * int) list;
  entry : int;
  stack_top : int;
  symbols : (string * int) list;
  detect_addr : int option;
}

val detect_counter_global : string
(** ["__gr_detect_count"] — the GlitchResistor detection counter
    {!spec_of_image} resolves for the {!Detected} verdict. *)

val spec_of_image : ?name:string -> Lower.Layout.image -> spec
(** The full STM32 shape (128K flash, 16K SRAM, a plain RAM page at the
    GPIO block so trigger stores are journaled instead of faulting). *)

val spec_of_case : Glitch_emu.Testcase.t -> spec
(** The Glitch_emu.Campaign snippet shape, constant-for-constant, for
    differential tests. *)

type mode = Transient | Persistent

val mode_name : mode -> string

type config = {
  models : Glitch_emu.Fault_model.flip list;
  weights : int list;
  mode : mode;
  zero_is_invalid : bool;
  max_trace : int;
  settle_steps : int option;
  cycles : (int * int) option;
  classify : (Machine.Cpu.t -> Machine.Exec.stop -> int) option;
  prune : bool;
  static_prune : bool;
      (** Prove continuations with the abstract fault-flow interpreter
          ({!Absint.Prune}) before running or sharing them. Only active
          in transient mode with the built-in classifier; sound — a
          proven point's verdict equals what execution would produce. *)
  keep_points : bool;
}

val default_config : unit -> config
(** All three fault models, 1- and 2-bit flips, transient mode, a
    2048-cycle window, auto settle, pruning on. *)

val enum_points :
  config -> (Glitch_emu.Fault_model.flip * int * int) array
(** The per-cycle point list [(model, flipped bit-set, model mask)] in
    the fixed enumeration order (models, then weights, then bit-sets
    ascending) that {!result}[.verdicts] follows. *)

type row = { fname : string; faddr : int; counts : int array }

type result = {
  spec_name : string;
  mode : mode;
  trace_steps : int;
  baseline_stop : Machine.Exec.stop option;
  settle : int;
  cycle_lo : int;
  cycle_hi : int;
  points : int;
  faulted : int;
  pruned : int;
  executed : int;
  static_pruned : int;
      (** continuations proven by the abstract fault-flow interpreter *)
  states : int;
  rows : row list;
  totals : int array;
  verdicts : Bytes.t option;
}

val prune_rate : result -> float
(** [pruned / (pruned + executed)] — the fraction of continuations
    served by state-equivalence sharing. Immediate faults at the
    injected step ([faulted]) are excluded from both sides. *)

val baseline :
  spec -> config -> (int * int) array * Machine.Exec.stop option
(** The recorded pristine trace — [(pc, fetched word)] per cycle — and
    how it stopped ([None]: still running at [max_trace]). Tests use it
    to locate the cycle at which a given flash word is fetched. *)

val to_json : result -> Json.t
(** The whole result as one object, tables included. *)

val perf :
  label:string -> ?pool:Runtime.Pool.t -> result -> float -> Stats.Perf.t
(** The PERF record of a run that took [elapsed_s] on [pool]: [points]
    as items, then [executed], [pruned], [prune_rate] and
    [static_pruned]. *)

val run : ?pool:Runtime.Pool.t -> spec -> config -> result
(** Run the campaign. [rows], [totals], [points], [faulted],
    [static_pruned], [states] and (with [keep_points]) [verdicts] are
    bit-identical at any job count; only the [pruned]/[executed] split
    is schedule-dependent (two workers racing a cold state both
    execute). *)

(** {2 Persistence} *)

val code_version : string
val cacheable : config -> bool
(** Results with a custom classifier or retained points are not
    cacheable. *)

val cache_key : spec -> config -> string
val encode_result : result -> string

val decode_result : spec -> config -> string -> result option
(** Re-validated decode (counter identity, totals = sum of rows); any
    inconsistency is [None]. Decoded results report [executed = 0]. *)

val run_cached :
  ?pool:Runtime.Pool.t -> ?cache:Cache.t -> spec -> config -> result * bool
(** [run] through the persistent cache; the flag is [true] on a cache
    hit. *)
