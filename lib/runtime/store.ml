(* A fixed-slot shared outcome store: one byte per slot, 0xFF = empty.

   Safety argument (the "publication" question). Slots are written with
   plain byte stores and read with plain byte loads, no fences. Under
   the OCaml 5 memory model a racy read of a non-atomic location yields
   *some* value previously written there (never an out-of-thin-air or
   torn value — single bytes cannot tear), so a reader sees either the
   empty sentinel or a value some domain stored. That is only sound
   because users must guarantee the stored function is deterministic
   and many-to-one: every domain that computes slot [i] computes the
   same value, so whichever write wins, and however stale a read is,
   the observable result is identical. A stale read of the sentinel
   merely costs a duplicated computation, never a wrong answer. *)

type t = { slots : Bytes.t }

let empty_slot = 0xFF
let max_value = 0xFE

let create ~slots =
  if slots <= 0 then invalid_arg "Store.create: non-positive slot count";
  { slots = Bytes.make slots (Char.chr empty_slot) }

let length t = Bytes.length t.slots

let get t i =
  let v = Char.code (Bytes.get t.slots i) in
  if v = empty_slot then -1 else v

let set t i v =
  if v < 0 || v > max_value then invalid_arg "Store.set: value out of range";
  Bytes.set t.slots i (Char.chr v)

let occupancy t =
  let n = ref 0 in
  Bytes.iter (fun c -> if Char.code c <> empty_slot then incr n) t.slots;
  !n
