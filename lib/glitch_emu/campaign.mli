(** Exhaustive bit-flip campaigns over an instruction's encoding — the
    paper's RQ1 harness. For every possible mask of every weight, the
    target instruction is perturbed in flash and the snippet is executed
    to completion; the outcome is classified with the same taxonomy as
    Figure 2.

    The sweep kernel exploits the fact that classification is a pure
    function of the {e perturbed word} (the rig is restored to an
    identical pristine state before every run): the And/Or fault models
    map 65,536 masks onto far fewer distinct words
    ({!Fault_model.changeable}), so each distinct word is executed once
    and counted for every mask that produces it
    ({!Fault_model.preimages}). {!sweep_stats} reports how much work
    that saved. *)

(** Outcome classification, matching Figure 2's legend. *)
type category =
  | Success  (** the otherwise-dead instruction after the branch ran *)
  | Bad_read
      (** the run faulted on a data access to unmapped or misaligned
          memory (unmapped writes are also counted here) *)
  | Bad_fetch  (** instruction fetch from unmapped memory (PC corrupted) *)
  | Invalid_instruction  (** the perturbed word has no decoding *)
  | Failed  (** any other abnormal end (trap, runaway execution) *)
  | No_effect  (** the run completed normally *)

val categories : category list
val category_name : category -> string

type config = {
  flip : Fault_model.flip;
  zero_is_invalid : bool;
      (** Figure 2(c)'s ISA modification: treat the all-zero word as an
          invalid instruction instead of [MOVS r0, r0]. *)
  max_steps : int;
}

val default_config : Fault_model.flip -> config

type counts = int array
(** Indexed by {!category_index}; length [List.length categories]. *)

val category_index : category -> int

val flash_base : int
(** Where the sweep rig loads a case: the flash base of
    [Machine.Loader.snippet_layout], the rig's geometry. *)

val category_of_stop : Machine.Exec.stop -> category
(** The category of a stop alone, for runs with no skip marker to read:
    a breakpoint is [No_effect], a trap or exhausted budget [Failed]. *)

val classify : Machine.Cpu.t -> Machine.Exec.stop -> category
(** Figure 2's classification of a finished snippet run: a breakpoint
    with the skip marker in [Testcase.skip_reg] is [Success], anything
    else {!category_of_stop}. *)

type sweep_stats = {
  executed : int;  (** perturbed words actually emulated *)
  memoized : int;  (** masks whose outcome needed no emulation of their own *)
}
(** [executed + memoized = 65536]. Each distinct perturbed word is
    emulated by exactly one worker, so the split does not depend on the
    job count or the schedule: a cold sweep executes as many words as
    the model's image of the target holds, a sweep on a warm store
    none. *)

type result = {
  case : Testcase.t;
  config : config;
  by_weight : counts array;
      (** Index = number of potentially-flipped bits (0..16); see
          [Fault_model.flipped_bits]. Entry 0 is the unmodified
          instruction. *)
  totals : counts;
  stats : sweep_stats;
}

val run_one : config -> Testcase.t -> mask:int -> category
(** Run a single perturbed execution on a fresh machine, via the
    original reference reset protocol (clear, reload, perturb) with no
    per-word sharing. This is the oracle that differential tests pin the
    sweep kernel against. *)

val make_store : unit -> Runtime.Store.t
(** A fresh empty word-outcome store ([2^16] slots), for callers that
    keep the outcomes of a sweep warm across calls. A store caches word
    classifications for exactly one [(config, case)] pair — the outcome
    depends on the whole snippet, not just the perturbed word — so such
    callers must key their stores by both. *)

val run_case :
  ?pool:Runtime.Pool.t -> ?store:Runtime.Store.t ->
  config -> Testcase.t -> result
(** Classify all [2^16] masks against the case's target instruction.

    The distinct perturbed words, not the masks, are drained through
    {!Runtime.Pool.drain}: each worker runs the words it claims, once
    each, against a private rig whose memory map and CPU are reused
    across words, and counts them by how many bits they change. The
    per-worker counts are summed and spread over the masks that produce
    each word ({!Fault_model.preimages}) with integer arithmetic, so
    [by_weight], [totals] and [stats] are bit-identical for every job
    count. Without a pool (or with a one-job pool) a single worker in
    the caller runs every word.

    [store] supplies a store from previous runs of the {e same}
    [(config, case)] pair (see {!make_store}): words already present
    are not run, and every word run is added, so a fully warm store
    yields [stats.executed = 0]. *)

val to_json : result -> Json.t
(** The result's tables: [{"totals": {category name: count, ...},
    "by_weight": [[count, ...], ...]}] (rows for weights 0..16). *)

val of_json : config -> Testcase.t -> Json.t -> result option
(** The inverse of {!to_json} for a sweep of [config] over the case;
    [None] on anything but an intact, self-consistent report. Decoded
    results carry [stats = { executed = 0; memoized = 65536 }]. *)

val perf :
  label:string -> ?pool:Runtime.Pool.t -> result list -> float -> Stats.Perf.t
(** The PERF record of sweeps that took [elapsed_s] on [pool]: [2^16]
    items per result, then the summed split [executed], [memoized] and
    [hit_rate]. *)

type sweep = {
  categories : category array;
      (** entry [mask] is that mask's classification; [2^16] entries *)
  by_word : category option array;
      (** entry [word] is the category established for that perturbed
          word, or [None] if no mask produced it; [2^16] entries *)
  sweep_stats : sweep_stats;
}

val sweep : config -> Testcase.t -> sweep
(** {!run_case} on a fresh store with no pool, read back per mask and
    per word, so tests can check the per-word outcomes against
    {!categories_by_mask} and {!run_one}. *)

val categories_by_mask : config -> Testcase.t -> category array
(** [(sweep config case).categories]. *)

val success_rate_by_weight : result -> (int * float) list
(** [(flipped_bits, percent)] for each weight with at least one mask. *)

val category_percent : result -> category -> float
(** Share of all modified-mask runs (weight > 0) in a category. *)
