(** Sparse 32-bit physical memory with explicit mappings.

    Accesses to unmapped addresses report a fault instead of raising, so
    the executor can classify glitch outcomes ("bad read", "bad fetch")
    the same way the paper's Unicorn harness does. Word and halfword
    accesses must be naturally aligned, matching Cortex-M0 behaviour
    where unaligned accesses HardFault. *)

type t

type fault =
  | Unmapped of int  (** address with no RAM/ROM/device mapping *)
  | Unaligned of int  (** naturally misaligned halfword/word access *)

exception Fault of fault
(** Raised by the [_exn] accessors instead of returning [Error]. *)

val pp_fault : fault Fmt.t

val create : unit -> t

val map : t -> addr:int -> size:int -> unit
(** Back [addr, addr+size) with zero-initialised RAM.
    @raise Invalid_argument on overlap with an existing mapping. *)

val add_device : t ->
  addr:int -> size:int -> read:(int -> int) -> write:(int -> int -> unit) ->
  unit
(** Map a byte-granularity device: [read offset] and [write offset byte]
    are called with offsets relative to [addr].
    @raise Invalid_argument on overlap with an existing mapping. *)

val is_mapped : t -> int -> bool

val has_device : t -> bool
(** Whether any device is mapped: its state lies outside RAM and its
    stores outside any journal. *)

val clear : t -> unit
(** Zero every RAM region (devices are untouched). Used by glitch
    campaigns to reuse one address space across millions of runs. *)

type snapshot

val snapshot : t -> snapshot
(** Copy of all RAM contents (device state is the device's problem). *)

val restore : t -> snapshot -> unit
(** Restore RAM to a snapshot taken from the same memory.
    @raise Invalid_argument if region shapes differ. *)

val read_u8 : t -> int -> (int, fault) result
val read_u16 : t -> int -> (int, fault) result
val read_u32 : t -> int -> (int, fault) result
val write_u8 : t -> int -> int -> (unit, fault) result
val write_u16 : t -> int -> int -> (unit, fault) result
val write_u32 : t -> int -> int -> (unit, fault) result

(** {2 Unboxed accessors}

    Same semantics as the [result] API (alignment checks, device
    dispatch, fault addresses), but faults are raised as {!Fault}
    instead of boxed in [Error], and aligned accesses inside one RAM
    region go through a single [Bytes] primitive (a miss on the
    last-hit region repoints it without allocating). The executor's
    fetch/execute loop uses these so a well-behaved guest allocates
    nothing per step. *)

val read_u8_exn : t -> int -> int
val read_u16_exn : t -> int -> int
val read_u32_exn : t -> int -> int
val write_u8_exn : t -> int -> int -> unit
val write_u16_exn : t -> int -> int -> unit
val write_u32_exn : t -> int -> int -> unit

val fetch_u16_exn : t -> int -> int
(** An instruction fetch: {!read_u16_exn}'s value and fault for every
    address, served by a cache of its own. Data accesses keep their own
    last-hit region, so a loop that alternates fetches from flash with
    loads from SRAM walks the region list for neither. Only a RAM
    region is ever cached; a device's handler runs on every fetch. *)

val fetch_window : t -> (int * int) option
(** [Some (lo, hi)] when the fetch cache serves the addresses
    [lo <= a < hi]; [None] when it is empty, as after {!create}, {!map}
    and {!add_device}. A fetch that misses RAM leaves it as it was. For
    tests. *)

val append_changed :
  t -> addrs:int array -> pristine:int array -> int -> Bytes.t -> int -> int
(** [append_changed t ~addrs ~pristine n buf pos] appends, for each
    [i < n] in order whose current byte at [addrs.(i)] differs from
    [pristine.(i)], the address (4 bytes LE) and that byte to [buf] at
    [pos], and returns the new end: the memory part of a [State] key
    in one call. [buf] must have room for [5 * n] bytes past [pos]. *)

val load_bytes : t -> addr:int -> bytes -> unit
(** Bulk store for program loading; a single [Bytes.blit] when the
    range falls inside one RAM region. @raise Invalid_argument if any
    byte falls outside RAM mappings. *)

(** {2 Write journal}

    An attached journal records the pre-image byte of every RAM store
    (devices are not journaled — their handlers own their state), so a
    campaign rig can rewind to a mark in time proportional to the bytes
    actually dirtied instead of blitting whole-region snapshots, and
    can recover each byte's pristine value from the oldest entry. The
    journal sits on the write fast path as a single [option] check when
    detached. [restore]/[clear] bypass the journal — don't mix them
    with an attached one. *)

type journal

val journal_create : unit -> journal
(** An empty journal, not yet attached to any memory. *)

val attach_journal : t -> journal -> unit
(** Record subsequent RAM stores into the journal (replacing any
    previously attached one). *)

val detach_journal : t -> unit

val journal_length : journal -> int
(** Entries recorded so far; positions [< length] are valid marks. *)

val journal_entry : journal -> int -> int * int
(** [(address, pre-image byte)] of entry [i], oldest first.
    @raise Invalid_argument out of range. *)

val journal_unchanged_since : t -> journal -> int -> bool
(** [journal_unchanged_since t j m]: every store [j] recorded from mark
    [m] on wrote back the byte it found, i.e. each entry's pre-image is
    its address's current byte. Then RAM equals what it was at [m]
    (a byte changed and then restored reads as a change, so [false]
    does not prove RAM differs). [false] whenever [j] is not the
    journal attached to [t]: stores it did not see may have changed
    anything. Allocates nothing. @raise Invalid_argument if [m] is not
    a valid mark. *)

val undo_to : t -> journal -> int -> unit
(** Rewind memory to its state at mark [m] (a previous
    {!journal_length}) by replaying pre-images newest-first, then
    truncate the journal to [m]. The undo stores are not themselves
    journaled. @raise Invalid_argument if [m] is not a valid mark or a
    journaled address is no longer RAM. *)
