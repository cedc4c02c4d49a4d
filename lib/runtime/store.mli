(** A lock-free fixed-slot outcome store shared between worker domains.

    One byte per slot; a slot is either empty or holds a small integer
    in [0, 254]. Reads and writes are plain (non-atomic) byte accesses,
    which is sound {e only} for memoizing a function that is
    deterministic over slot indices: every domain that fills slot [i]
    must store the same value, so races can at worst return a stale
    "empty" — never a wrong or torn value (single-byte accesses cannot
    tear, and the OCaml 5 memory model forbids out-of-thin-air reads).

    The Figure 2 sweep fills one per [(config, case)] pair when asked
    to: [glitchctl serve] keeps them warm across requests, and
    [Glitch_emu.Campaign.sweep] reads one back per word. The sweep's
    workers each run distinct words, so they never race on a slot. *)

type t

val create : slots:int -> t
(** All slots empty. Raises [Invalid_argument] on a non-positive
    count. *)

val length : t -> int

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
