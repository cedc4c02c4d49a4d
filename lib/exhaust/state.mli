(** Canonical whole-machine state keys over a journaled rig.

    [seal] attaches a write journal to a loaded machine; from then on
    the rig can compute an exact canonical key for its current state
    ({!key}), and rewind memory to any earlier {!mark} in time
    proportional to the bytes dirtied since ({!undo_to}).

    The key encodes r0–r15, the NZCV flags, and every memory byte
    written on the current history (since [seal], not undone) that
    currently differs from its pristine (seal-time) value, in ascending
    address order. Building it costs time proportional to the bytes
    written on the current history, not to every byte the rig ever
    wrote. Two rigs sealed over the same image produce equal keys
    {e iff} their machine states are equal — the key is a faithful
    serialization, not a lossy hash, so state "hash" sharing keyed on
    it can never merge distinct states. *)

type t

val seal : mem:Machine.Memory.t -> cpu:Machine.Cpu.t -> t
(** Attach a fresh journal and start tracking. The machine's current
    contents become the pristine baseline that keys are expressed
    against; callers must finish loading the image first. *)

val mem : t -> Machine.Memory.t
val cpu : t -> Machine.Cpu.t

val mark : t -> int
(** A rewind point for {!undo_to}. *)

val undo_to : t -> int -> unit
(** Rewind memory (not registers) to a previous {!mark}. *)

val build_key : t -> int
(** Write the canonical state key for the current machine state into
    the first [n] bytes of {!key_buffer} and return [n]. The buffer is
    reused: the next key build overwrites it. *)

val key_buffer : t -> Bytes.t
(** The buffer {!build_key} wrote into. Fetch it after the build: a
    longer key may replace it. *)

val key : t -> string
(** {!build_key}, copied out to a string. *)

val save_regs : t -> int array -> int
(** Copy r0–r15 into the 16-slot scratch array; returns the packed
    NZCV flags. Together with a memory {!mark}, a full state
    checkpoint. *)

val restore_regs : t -> int array -> int -> unit
(** Restore registers and flags saved by {!save_regs}. *)

val touched_bytes : t -> int
(** Distinct memory addresses written on the current history: since
    [seal], not counting writes an {!undo_to} took back. The key's
    worst-case memory footprint, reported in campaign stats. *)
