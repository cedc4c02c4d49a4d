(** The batch audit service behind [glitchctl serve]: one shared
    domain pool, one set of in-session shared memo stores, and one
    persistent result cache, amortized across many audit requests.

    Three temperature levels for a request:
    - {b hit} — the persistent cache holds an intact entry for the
      exact (case image, fault model, config, code version) key; the
      result is decoded with {e zero} sweep cases executed.
    - {b warm} — no cache entry, but this session already swept the
      same key, so the shared {!Runtime.Store} serves every word and
      again nothing is executed.
    - {b miss} — a real sweep runs (on the pool if one was given) and
      the result is persisted for next time. *)

val code_version : string
(** Participates in every cache key; bump on any change to sweep
    semantics so old entries stop being addressable. *)

val cache_key : Glitch_emu.Campaign.config -> Glitch_emu.Testcase.t -> string
(** The persistent-cache key: assembled case image bytes x target
    index x fault model x config x {!code_version}. *)

val encode_result : Glitch_emu.Campaign.result -> string
(** Serialize a result's tables for {!Cache.store}. *)

val decode_result :
  Glitch_emu.Campaign.config ->
  Glitch_emu.Testcase.t ->
  string ->
  Glitch_emu.Campaign.result option
(** Decode and re-validate (counts sum to [2^16], totals re-derivable
    from the by-weight rows); any inconsistency is [None], i.e. a
    cache miss. Decoded results carry
    [stats = { executed = 0; memoized = 65536 }]. *)

type status = Hit | Warm | Miss

val status_name : status -> string
(** ["hit"], ["warm"], ["miss"]. *)

type t

val create : ?pool:Runtime.Pool.t -> ?cache:Cache.t -> unit -> t
(** A service sharing [pool] and [cache] across all subsequent
    requests. Omitting [cache] disables persistence (statuses are then
    only ever [Warm] or [Miss]); omitting [pool] sweeps sequentially. *)

val run_case :
  t ->
  Glitch_emu.Campaign.config ->
  Glitch_emu.Testcase.t ->
  Glitch_emu.Campaign.result * status
(** Serve one audit, from the cache when possible. Miss results are
    persisted before returning. *)

val handle_line : t -> string -> string
(** One line of the JSON protocol: parse a request object
    ([{"id": any, "case": "beq", "model": "and",
    "zero_is_invalid": false, "max_steps": 200}] — all fields but
    ["case"] optional), serve it, and render the response object (its
    ["cache"] field is the {!status_name}; ["executed"] is the number
    of sweep cases actually emulated). Malformed lines produce an
    [{"ok": false}] response rather than an exception — a bad request
    must not take the server down. *)

val find_case : string -> Glitch_emu.Testcase.t option
(** Case lookup by (case-insensitive) name, over the conditional
    branches and the non-branch snippets. *)
