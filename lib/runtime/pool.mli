(** A persistent pool of worker domains for campaign sweeps.

    The pool owns [jobs - 1] domains that sleep between parallel
    regions; the calling domain participates as worker 0, so [jobs]
    workers execute every region. Every campaign fans out through
    {!drain}: each worker folds the slices it claims from a
    {!Chunk.queue} into a private accumulator, and the per-worker
    accumulators are merged with a commutative reduction — making
    results independent of the domain count and of scheduling.

    There is one code path for every job count: a [jobs = 1] pool (or
    no pool at all) is one worker, run in the caller, spawning no
    domain. *)

type t

val default_jobs : ?chunks:int -> unit -> int
(** [Domain.recommended_domain_count ()], the [--jobs] default, clamped
    to the cgroup CPU quota ({!cgroup_cpu_limit}) and to [chunks] (the
    number of parallel work items) when given: the recommended count is
    the {e host}'s core count, so in a quota-limited CI container it
    over-subscribes workers that then time-slice against each other,
    and surplus domains beyond the chunk count can only spin on an
    empty queue. *)

val cgroup_cpu_limit : unit -> int option
(** Effective CPU limit from the cgroup: v2 [/sys/fs/cgroup/cpu.max],
    falling back to the v1 [cpu.cfs_quota_us]/[cpu.cfs_period_us] pair;
    [None] when unlimited, unreadable, or malformed. *)

val parse_cpu_max : string -> int option
(** Parse a cgroup-v2 ["QUOTA PERIOD"] line (["max PERIOD"] =
    unlimited) into [ceil(quota/period)] cores. Exposed for tests. *)

val parse_cpu_cfs : quota:string -> period:string -> int option
(** Parse the cgroup-v1 file pair ([-1] quota = unlimited). Exposed for
    tests. *)

val create : ?jobs:int -> unit -> t
(** [jobs] defaults to {!default_jobs}; values below 1 are clamped
    to 1. *)

val jobs : t -> int

val run : t -> (int -> unit) -> unit
(** [run t f] executes [f wid] once for each worker id
    [0 .. jobs - 1], concurrently, and returns when all are done. The
    calling domain runs [f 0]. If any worker raises, one of the
    exceptions is re-raised here after every worker has finished.
    Regions cannot be nested: calling [run] from inside [f] raises
    [Invalid_argument]. *)

val map_workers : t -> (int -> 'a) -> 'a list
(** Like {!run} but collects each worker's result, ordered by worker
    id. *)

val drain :
  ?pool:t -> ?size:int -> lo:int -> hi:int -> init:(unit -> 'acc) ->
  ('acc -> int -> int -> unit) -> 'acc list
(** [drain ?pool ?size ~lo ~hi ~init f] cuts [\[lo, hi)] into slices
    of [size] (default {!Chunk.default_size}) and lets every worker of
    [pool] claim slices until none is left: each worker builds one
    accumulator with [init ()] and folds every slice [(a, b)] it
    claims into it with [f acc a b]. The accumulators come back in
    worker order, one per worker, including workers that claimed
    nothing. Without [pool] one worker drains the whole range in the
    caller — with the default size, as a single slice. *)

type stats = { regions : int; wall_s : float; busy_s : float }
(** Accumulated parallel-region accounting: [regions] completed,
    caller-observed wall seconds inside regions, and the sum over all
    workers of seconds spent inside job functions. *)

val stats : t -> stats

val reset_stats : t -> unit

val stats_wait : jobs:int -> stats -> float
(** Worker-seconds of capacity not spent in job functions —
    queue wait plus wake-up/barrier overhead. *)

val stats_utilization : jobs:int -> stats -> float
(** [busy / (jobs * wall)], clamped to [0, 1]. [1.] when no region has
    run. *)

val shutdown : t -> unit
(** Join the worker domains. Idempotent; the pool is unusable
    afterwards. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [create], run the callback, and [shutdown] (also on exceptions). *)
