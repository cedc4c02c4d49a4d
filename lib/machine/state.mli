(** The write-set tracker of every journaled rig: the exhaustive
    injector's points and the attack board's attempts.

    [seal] attaches a write journal to a loaded machine; from then on
    the rig knows every byte written since ({!written}), can compute an
    exact canonical key for its current state ({!key}), and rewinds
    memory to any earlier {!mark} in time proportional to the bytes
    dirtied since ({!undo_to}). Rigs create, read and undo the {!Memory}
    journal only through this module.

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

val seal : mem:Memory.t -> cpu:Cpu.t -> t
(** Attach a fresh journal and start tracking. The machine's current
    contents become the pristine baseline that keys are expressed
    against; callers must finish loading the image first. *)

val mem : t -> Memory.t
val cpu : t -> Cpu.t

val mark : t -> int
(** A rewind point for {!undo_to}. *)

val undo_to : t -> int -> unit
(** Rewind memory (not registers) to a previous {!mark}. *)

val flags_offset : int
(** Key offset of the NZCV byte, after r0–r15 (4 bytes LE each). *)

val header_bytes : int
(** Key bytes before the memory part (5 bytes per address) begins. *)

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

val written : t -> int array
(** The live set, one element per address written on the current
    history, ascending: [(addr lsl 16) lor (sealed lsl 8) lor current],
    where [sealed] is the byte at [seal] time — also when [current]
    has returned to it. *)

val run_cutoff : ?zero_is_invalid:bool -> max_steps:int -> t -> Exec.stop
(** {!Exec.run} on the rig's machine, with the same stop and a
    bit-identical final state, except that a run whose whole state
    (r0–r15, NZCV, memory) recurs without a stop ends at the first
    recurrence found, after only [remaining mod period] further steps.
    The first check comes after a fixed 64 steps, so a shorter budget
    is a plain run. A rig whose memory maps a device always runs plain:
    device stores are not journaled. Nor is a run ever cut once the
    rig's journal has been detached. *)
