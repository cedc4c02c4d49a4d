(** A lock-free fixed-slot outcome store shared between worker domains.

    One byte per slot; a slot is either empty or holds a small integer
    in [0, 254]. Reads and writes are plain (non-atomic) byte accesses,
    which is sound {e only} for memoizing a function that is
    deterministic and many-to-one over slot indices: every domain that
    fills slot [i] must store the same value, so races can at worst
    return a stale "empty" and cost a duplicated computation — never a
    wrong or torn value (single-byte accesses cannot tear, and the
    OCaml 5 memory model forbids out-of-thin-air reads).

    This is the shared replacement for the worker-private sweep memos:
    with a private memo, [N] workers re-execute a word up to [N] times;
    with a shared store the expected duplication is bounded by the
    handful of in-flight computations that race on a cold slot. *)

type t

val create : slots:int -> t
(** All slots empty. Raises [Invalid_argument] on a non-positive
    count. *)

val length : t -> int

val clear : t -> unit
(** Empty every slot. Not concurrent-safe: no domain may use the store
    meanwhile. *)

val get : t -> int -> int
(** The value published for a slot, or [-1] when (observably) empty.
    A racing reader may see [-1] for a slot another domain just filled;
    callers must treat that as "compute it yourself". *)

val set : t -> int -> int -> unit
(** Publish a value in [0, 254]. Concurrent writers must be writing the
    same value (the determinism contract above). Raises
    [Invalid_argument] if the value does not fit in a slot. *)

val occupancy : t -> int
(** Number of non-empty slots — the count of distinct outcomes
    established so far. Linear scan; racy by nature, intended for
    post-run statistics. *)
