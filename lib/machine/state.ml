(* The write-set tracker of every journaled rig, and the whole-machine
   state keys of the exhaustive injector.

   A rig wraps one machine with a write journal. The journal holds the
   current history: every store since the rig was sealed that has not
   been undone. The first entry for an address carries its pristine
   (post-load) byte, so the addresses written on the current history
   — the live set — are the only memory that can differ from the
   pristine image. A state key is therefore exact by construction:

     key = r0..r15 (raw, 4 bytes LE each)
         . NZCV flag byte
         . for each live address, ascending:
             addr (4 bytes LE) . current byte   — only when it differs
                                                   from pristine

   Two rigs over the same sealed image produce equal keys iff their
   machine states are equal: registers and flags are compared in full,
   memory outside either live set equals the shared pristine image on
   both sides, and a live byte that has returned to its pristine value
   is excluded on both sides regardless of which rig's history wrote
   it. Equal key <=> equal state — there is no lossy hashing here, so
   "hash collisions" cannot merge distinct states (the shared map also
   stores full keys; see Runtime.Keymap).

   The live set follows the journal. Absorbing new entries adds each
   address's first write: it is inserted into the ascending [addrs]
   (its pristine byte alongside in [pristine]) and pushed onto a stack
   of (first-write journal index, addr). [undo_to m] pops every address
   first written at an index >= m; after the undo those bytes are
   pristine again. A key thus walks the baseline's writes plus the
   current continuation's, not every byte any continuation ever wrote. *)

type t = {
  mem : Memory.t;
  cpu : Cpu.t;
  journal : Memory.journal;
  mutable addrs : int array;  (* live addresses, ascending *)
  mutable pristine : int array;  (* their pristine bytes, parallel *)
  mutable first_idx : int array;  (* stack: first-write journal index *)
  mutable first_addr : int array;  (* stack: the address written there *)
  mutable nlive : int;  (* live-set size = stack depth *)
  mutable scanned : int;  (* journal entries already absorbed *)
  mutable buf : Bytes.t;  (* the last key built *)
  watch : Exec.watch;  (* run_cutoff's checkpoint *)
}

let seal ~mem ~cpu =
  let journal = Memory.journal_create () in
  Memory.attach_journal mem journal;
  { mem; cpu; journal;
    addrs = Array.make 64 0; pristine = Array.make 64 0;
    first_idx = Array.make 64 0; first_addr = Array.make 64 0;
    nlive = 0; scanned = 0; buf = Bytes.create 256;
    watch = { Exec.ck = Cpu.create (); left = -1 } }

let mem t = t.mem
let cpu t = t.cpu

(* Position of [addr] in the live set, or where it would be inserted. *)
let search t addr =
  let lo = ref 0 and hi = ref t.nlive in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.addrs.(mid) < addr then lo := mid + 1 else hi := mid
  done;
  !lo

let grow a n = Array.append a (Array.make n 0)

let insert t pos addr old idx =
  let n = t.nlive in
  if n = Array.length t.addrs then begin
    t.addrs <- grow t.addrs n;
    t.pristine <- grow t.pristine n;
    t.first_idx <- grow t.first_idx n;
    t.first_addr <- grow t.first_addr n
  end;
  Array.blit t.addrs pos t.addrs (pos + 1) (n - pos);
  Array.blit t.pristine pos t.pristine (pos + 1) (n - pos);
  t.addrs.(pos) <- addr;
  t.pristine.(pos) <- old;
  t.first_idx.(n) <- idx;
  t.first_addr.(n) <- addr;
  t.nlive <- n + 1

(* Absorb journal entries written since the last call: an address not
   yet live is first written by this entry, whose pre-image is its
   pristine byte (entries are scanned oldest-first). *)
let absorb t =
  let n = Memory.journal_length t.journal in
  for i = t.scanned to n - 1 do
    let addr, old = Memory.journal_entry t.journal i in
    let pos = search t addr in
    if pos = t.nlive || t.addrs.(pos) <> addr then insert t pos addr old i
  done;
  t.scanned <- n

let mark t = Memory.journal_length t.journal

let undo_to t m =
  Memory.undo_to t.mem t.journal m;
  (* entries at or past [m] are gone: their first writes leave the set *)
  while t.nlive > 0 && t.first_idx.(t.nlive - 1) >= m do
    let n = t.nlive - 1 in
    let pos = search t t.first_addr.(n) in
    Array.blit t.addrs (pos + 1) t.addrs pos (n - pos);
    Array.blit t.pristine (pos + 1) t.pristine pos (n - pos);
    t.nlive <- n
  done;
  t.scanned <- min t.scanned m

let reserve t len =
  if len > Bytes.length t.buf then begin
    let bigger = Bytes.create (max len (2 * Bytes.length t.buf)) in
    Bytes.blit t.buf 0 bigger 0 (Bytes.length t.buf);
    t.buf <- bigger
  end

let flags_byte (cpu : Cpu.t) =
  (if cpu.n then 8 else 0)
  lor (if cpu.z then 4 else 0)
  lor (if cpu.c then 2 else 0)
  lor if cpu.v then 1 else 0

let flags_offset = 64
let header_bytes = flags_offset + 1

let build_key t =
  absorb t;
  reserve t (header_bytes + (5 * t.nlive));
  let b = t.buf in
  let regs = t.cpu.Cpu.regs in
  for i = 0 to 15 do
    Bytes.set_int32_le b (4 * i) (Int32.of_int regs.(i))
  done;
  Bytes.set_uint8 b flags_offset (flags_byte t.cpu);
  Memory.append_changed t.mem ~addrs:t.addrs ~pristine:t.pristine t.nlive b
    header_bytes

let key_buffer t = t.buf

let key t =
  let len = build_key t in
  Bytes.sub_string t.buf 0 len

let save_regs t dst =
  Array.blit t.cpu.Cpu.regs 0 dst 0 16;
  flags_byte t.cpu

let restore_regs t src flags =
  Array.blit src 0 t.cpu.Cpu.regs 0 16;
  t.cpu.Cpu.n <- flags land 8 <> 0;
  t.cpu.Cpu.z <- flags land 4 <> 0;
  t.cpu.Cpu.c <- flags land 2 <> 0;
  t.cpu.Cpu.v <- flags land 1 <> 0

let touched_bytes t =
  absorb t;
  t.nlive

let written t =
  absorb t;
  Array.init t.nlive (fun i ->
      let addr = t.addrs.(i) in
      (addr lsl 16) lor (t.pristine.(i) lsl 8) lor Memory.read_u8_exn t.mem addr)

(* --- the recurrence cutoff -------------------------------------------- *)

(* A step is a pure function of r0-r15, NZCV and memory (the fetch and
   data caches and the journal's length are not state), so once a run's
   state recurs after [period] steps without a stop, the rest of the
   run is periodic: a budget of [r] more steps ends in the state that
   [r mod period] steps reach, still running. Brent's cycle detection
   finds a recurrence: checkpoint the state, run a window of steps
   watching for the checkpoint's registers and flags (Exec.run_watch),
   and at each such landing compare memory; a window that ends without
   a match takes a new checkpoint with twice the window. Memory compares
   through the journal: equal when every store since the checkpoint's
   mark wrote back the byte it found (the guard loop's write-backs of
   its stack slots pass). A device is state that no journal sees, so a
   rig that maps one never takes the cutoff.

   The first checkpoint comes after this many steps, so shorter runs pay
   nothing: exhaust-defended's continuations (settle 64) never reach
   it. Past it, on exhaust-guard (settle 2,048), 547 of the 1,550
   continuations are cut and the continuations' steps fall from 1.55 M
   to 0.48 M; a run that never recurs pays a register compare at each
   return to the checkpoint's pc, about 4% of a 3,000-step-settle
   campaign on the all-defenses build, whose delay loops return there
   every few steps. *)
let first_checkpoint = 64

(* A checkpoint at pc -1, which no step lands on: an unwatched run. *)
let plain t zero_is_invalid steps =
  t.watch.ck.Cpu.regs.(15) <- -1;
  Exec.run_watch ~zero_is_invalid ~max_steps:steps t.watch t.mem t.cpu

(* [remaining] steps were left at the checkpoint (journal mark [m]);
   [left] of the window's [budget] are unspent. *)
let rec watched t zero_is_invalid remaining window m budget left =
  match Exec.run_watch ~zero_is_invalid ~max_steps:left t.watch t.mem t.cpu with
  | Exec.Step_limit when t.watch.Exec.left >= 0 ->
    let left = t.watch.Exec.left in
    if Memory.journal_unchanged_since t.mem t.journal m then begin
      let period = budget - left in
      plain t zero_is_invalid ((remaining - period) mod period)
    end
    else watched t zero_is_invalid remaining window m budget left
  | Exec.Step_limit ->
    if remaining = budget then Exec.Step_limit
    else checkpoint t zero_is_invalid (remaining - budget) (2 * window)
  | s -> s

and checkpoint t zero_is_invalid remaining window =
  let ck = t.watch.Exec.ck in
  Array.blit t.cpu.Cpu.regs 0 ck.Cpu.regs 0 16;
  ck.n <- t.cpu.n;
  ck.z <- t.cpu.z;
  ck.c <- t.cpu.c;
  ck.v <- t.cpu.v;
  let budget = min window remaining in
  watched t zero_is_invalid remaining window (mark t) budget budget

let run_cutoff ?(zero_is_invalid = false) ~max_steps t =
  if max_steps <= first_checkpoint || Memory.has_device t.mem then
    plain t zero_is_invalid max_steps
  else
    match plain t zero_is_invalid first_checkpoint with
    | Exec.Step_limit ->
      checkpoint t zero_is_invalid (max_steps - first_checkpoint)
        first_checkpoint
    | s -> s
