(** A persistent content-addressed result cache.

    A key is the digest of one {!Json.t} describing every input that
    determines a result, together with {!code_version}; a value is
    the result's own JSON report ({!memo}). Entries carry an integrity
    digest and are written atomically (temp file + rename), and {e any}
    load problem — missing, truncated, bit-flipped, malformed, or a
    payload its decoder rejects — is a miss, never an exception:
    corrupting the cache directory must not be able to crash or
    mislead the tools. *)

type t

val open_dir : string -> t
(** Open (creating if needed, like [mkdir -p]) a cache rooted at the
    given directory. *)

val dir : t -> string

val code_version : string
(** A build-time digest of the sources of thumb, machine, glitch_emu,
    runtime, absint, exhaust, json and cache: any edit to them changes
    every key, so no entry written by other code is ever served. *)

val key : Json.t -> string
(** The hex digest of a description of a result's inputs and
    {!code_version}; distinct descriptions get distinct keys. *)

val memo :
  t option ->
  key:string ->
  of_json:(Json.t -> 'a option) ->
  to_json:('a -> Json.t) ->
  (unit -> 'a) ->
  'a * bool
(** The one persistence path: the entry under [key] if it parses and
    [of_json] accepts it (flag [true]), else [run ()], stored as its
    [to_json] (flag [false]). Without a cache it just runs. *)

val store : t -> key:string -> string -> unit
(** Atomically persist a payload under a key (overwriting any previous
    entry). Raises on I/O errors — failing to {e write} the cache is a
    real error, unlike failing to read it. [Invalid_argument] if [key]
    did not come from {!key}. *)

val load : t -> key:string -> string option
(** The payload stored under the key, or [None] on a miss — including
    every corruption case. [Invalid_argument] if [key] did not come
    from {!key}. *)
