(** A lock-free shared map from canonical state keys to verdicts —
    {!Store} lifted from dense word indices to sparse whole-machine
    state strings.

    Entries keep their full key and lookups compare keys byte-for-byte,
    so two states colliding on the bucket hash are both stored and
    never silently merged. Sharing between domains follows the same
    contract as {!Store}: the value must be a deterministic function of
    the key (racing writers then publish identical values, and a stale
    miss merely recomputes). *)

type t

val create : ?slots:int -> unit -> t
(** [slots] (default [65536], rounded up to a power of two) fixes the
    bucket count, not a capacity: buckets chain, so the map never
    rejects an insert. @raise Invalid_argument on a non-positive
    count. *)

val find_prefix : t -> Bytes.t -> int -> int
(** [find_prefix t b len] is the value published for the key held in
    the first [len] bytes of [b], or [-1] when there is none; it
    allocates nothing. A racing reader may miss a key another domain
    just added; callers must treat that as "compute it yourself". *)

val find : t -> string -> int option
(** {!find_prefix} on a whole string. *)

val add : t -> string -> int -> unit
(** Publish a non-negative value for a key. First writer wins; losers
    of the insertion race verify the key is present and return. @raise
    Invalid_argument on a negative value. *)

val hash : Bytes.t -> int -> int
(** [hash b len] is the bucket hash of the key held in the first [len]
    bytes of [b]; every bit of the key feeds it. Exposed for tests. *)

val count : t -> int
(** Distinct keys inserted so far. Schedule-independent after a region
    completes, because raced duplicates are never inserted. *)
