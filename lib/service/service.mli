(** The batch audit service behind [glitchctl serve]: one shared
    domain pool, one set of in-session shared memo stores, and one
    persistent result cache, amortized across many audit requests.
    This module holds only the warm stores and the line protocol;
    persistence is {!Cache.memo}, with {!Glitch_emu.Campaign.to_json}
    as the entry.

    Three temperature levels for a request:
    - {b hit} — the persistent cache holds an intact entry for the
      exact key (case image, target, fault model, every config field,
      {!Cache.code_version}); the result is decoded and re-validated
      ({!Glitch_emu.Campaign.of_json}) with {e zero} sweep cases
      executed.
    - {b warm} — no cache entry, but this session already swept the
      same key, so the shared {!Runtime.Store} serves every word and
      again nothing is executed.
    - {b miss} — a real sweep runs (on the pool if one was given) and
      the result is persisted for next time. *)

type status = Hit | Warm | Miss

val status_name : status -> string
(** ["hit"], ["warm"], ["miss"]. *)

type t

val create : ?pool:Runtime.Pool.t -> ?cache:Cache.t -> unit -> t
(** A service sharing [pool] and [cache] across all subsequent
    requests. Omitting [cache] disables persistence (statuses are then
    only ever [Warm] or [Miss]); omitting [pool] sweeps in the calling
    domain. *)

val run_case :
  t ->
  Glitch_emu.Campaign.config ->
  Glitch_emu.Testcase.t ->
  Glitch_emu.Campaign.result * status
(** Serve one audit, from the cache when possible. Miss results are
    persisted before returning. *)

val max_steps_limit : int
(** The largest per-run step budget a request may ask for (100,000;
    the default is 200). Sweep cost grows linearly with it, so a
    larger ["max_steps"] is answered with [{"ok": false}]. *)

val handle_line : t -> string -> string
(** One line of the JSON protocol: parse a request object
    ([{"id": any, "case": "beq", "model": "and",
    "zero_is_invalid": false, "max_steps": 200}] — all fields but
    ["case"] optional), serve it, and render the response object (its
    ["cache"] field is the {!status_name}; ["executed"] is the number
    of sweep cases actually emulated). An absent optional field takes
    its default; a present one must be well typed — ["model"] one of
    the strings and/or/xor (any case), ["zero_is_invalid"] a boolean,
    ["max_steps"] an integer in 1..{!max_steps_limit} — or the answer
    is [{"ok": false}] with an error naming the field. Malformed lines
    produce an [{"ok": false}] response rather than an exception — a
    bad request must not take the server down. *)

val find_case : string -> Glitch_emu.Testcase.t option
(** Case lookup by (case-insensitive) name, over the conditional
    branches and the non-branch snippets. *)
