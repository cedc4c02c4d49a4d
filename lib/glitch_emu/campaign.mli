(** Exhaustive bit-flip campaigns over an instruction's encoding — the
    paper's RQ1 harness. For every possible mask of every weight, the
    target instruction is perturbed in flash and the snippet is executed
    to completion; the outcome is classified with the same taxonomy as
    Figure 2.

    The sweep kernel exploits the fact that classification is a pure
    function of the {e perturbed word} (the rig is restored to an
    identical pristine state before every run): the And/Or fault models
    map 65,536 masks onto far fewer distinct words, so each distinct
    word is executed once and every other mask replays the memoized
    category. {!sweep_stats} reports how much work that saved. *)

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
val flash_size : int
val sram_base : int
val sram_size : int
val stack_top : int
(** The sweep rig's address-space geometry.  Exposed so the static
    analyzer ({!Analysis.Surface.predicted_outcomes}) can reason about
    which perturbed branch targets stay inside the snippet image — the
    differential property pins its predictions against {!run_one} on
    exactly this rig. *)

type sweep_stats = {
  executed : int;  (** perturbed words actually emulated *)
  memoized : int;  (** masks served from the per-word outcome memo *)
}
(** [executed + memoized] equals the number of masks processed. The
    memo store is shared between workers, so in a parallel sweep
    [executed] stays close to the number of distinct perturbed words;
    the exact executed/memoized split is schedule-dependent (two
    workers racing on a cold slot both count an execution) — only the
    sum and the resulting tables are deterministic. *)

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
    memoization. This is the oracle that differential tests pin the
    memoized sweep kernel against. *)

val make_store : unit -> Runtime.Store.t
(** A fresh empty word-outcome store ([2^16] slots). A store caches
    word classifications for exactly one [(config, case)] pair — the
    outcome depends on the whole snippet, not just the perturbed word —
    so callers keeping stores warm across calls must key them by
    both. *)

val run_case :
  ?pool:Runtime.Pool.t -> ?store:Runtime.Store.t ->
  config -> Testcase.t -> result
(** Run all [2^16] masks against the case's target instruction.

    With a multi-domain [pool] the mask space is split into contiguous
    chunks drained by worker domains, each against a private rig whose memory map and CPU are
    reused across masks, all sharing one lock-free word-outcome store
    ({!Runtime.Store}). Per-domain counts are merged with plain
    integer addition — commutative — so [by_weight] and [totals] are
    bit-identical to the sequential sweep for every domain count.
    Without a pool the sweep takes the single-domain code path.

    [store] supplies a warm store from a previous run of the {e same}
    [(config, case)] pair (see {!make_store}); words already present
    are served without emulation, so a fully warm store yields
    [stats.executed = 0]. *)

val run_all : ?pool:Runtime.Pool.t -> config -> Testcase.t list -> result list

val perf :
  label:string -> ?pool:Runtime.Pool.t -> result list -> float -> Stats.Perf.t
(** The PERF record of sweeps that took [elapsed_s] on [pool]: [2^16]
    items per result, then the summed memo split [executed],
    [memoized] and [hit_rate]. *)

type sweep = {
  categories : category array;
      (** entry [mask] is that mask's classification; [2^16] entries *)
  by_word : category option array;
      (** the memo: entry [word] is the category established for that
          perturbed word, or [None] if no mask produced it; [2^16]
          entries *)
  sweep_stats : sweep_stats;
}

val sweep : config -> Testcase.t -> sweep
(** The raw memoized sweep behind {!run_case}, computed with a single
    reused rig, with the per-word memo exposed so tests can check it
    against {!categories_by_mask} and {!run_one}. *)

val categories_by_mask : config -> Testcase.t -> category array
(** [(sweep config case).categories]. *)

val success_rate_by_weight : result -> (int * float) list
(** [(flipped_bits, percent)] for each weight with at least one mask. *)

val category_percent : result -> category -> float
(** Share of all modified-mask runs (weight > 0) in a category. *)
