(** Contiguous work distribution for exhaustive sweeps.

    A campaign's index space (65,536 masks, a list of parameter-plane
    rows, ...) is cut into contiguous slices that worker domains pull
    from a shared queue. Slices are disjoint and cover the range
    exactly, so any per-slice tally merged with a commutative reduction
    is independent of which domain processed which slice. *)

val default_size : lo:int -> hi:int -> jobs:int -> int
(** Slice size giving each worker several slices to pull (for load
    balance) while keeping per-slice overhead negligible. A lone worker
    has nothing to balance, so [jobs = 1] gets the whole range as one
    slice. *)

type queue
(** A lock-free queue of contiguous slices over an integer range.
    Multiple domains may [take] concurrently. *)

val queue : ?size:int -> lo:int -> hi:int -> jobs:int -> unit -> queue
(** Queue over [\[lo, hi)] in slices of [size] (default
    {!default_size}). *)

val take : queue -> (int * int) option
(** Next unclaimed slice [(lo, hi)], or [None] once the range is
    exhausted. Each index is handed out exactly once across all
    domains. *)
