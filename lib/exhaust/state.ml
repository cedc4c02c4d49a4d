open Machine

(* Whole-machine state keys for the exhaustive injector.

   A rig wraps one machine with a write journal. The journal's
   pre-images tell us, for every address ever stored to since the rig
   was sealed, what its pristine (post-load) byte was; the sorted set
   of those addresses is the only memory that can differ from the
   pristine image. A state key is therefore exact by construction:

     key = r0..r15 (raw, 4 bytes LE each)
         . NZCV flag byte
         . for each ever-touched address, ascending:
             addr (4 bytes LE) . current byte   — only when it differs
                                                   from pristine

   Two rigs over the same sealed image produce equal keys iff their
   machine states are equal: registers and flags are compared in full,
   untouched memory equals the shared pristine image on both sides, and
   a touched byte that has returned to its pristine value is excluded
   on both sides regardless of which rig's journal happened to touch
   it. Equal key <=> equal state — there is no lossy hashing here, so
   "hash collisions" cannot merge distinct states (the shared map also
   stores full keys; see Runtime.Keymap). *)

type t = {
  mem : Memory.t;
  cpu : Cpu.t;
  journal : Memory.journal;
  pristine : (int, int) Hashtbl.t;  (* ever-touched addr -> pristine byte *)
  mutable touched : int array;  (* those addrs, ascending *)
  mutable ntouched : int;
  mutable scanned : int;  (* journal entries already absorbed *)
  buf : Buffer.t;
}

let seal ~mem ~cpu =
  let journal = Memory.journal_create () in
  Memory.attach_journal mem journal;
  { mem; cpu; journal; pristine = Hashtbl.create 256;
    touched = Array.make 64 0; ntouched = 0; scanned = 0;
    buf = Buffer.create 256 }

let mem t = t.mem
let cpu t = t.cpu

let insert_touched t addr =
  (* binary search for the insertion point; the set is ascending *)
  let lo = ref 0 and hi = ref t.ntouched in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.touched.(mid) < addr then lo := mid + 1 else hi := mid
  done;
  let pos = !lo in
  if t.ntouched = Array.length t.touched then begin
    let bigger = Array.make (2 * t.ntouched) 0 in
    Array.blit t.touched 0 bigger 0 t.ntouched;
    t.touched <- bigger
  end;
  Array.blit t.touched pos t.touched (pos + 1) (t.ntouched - pos);
  t.touched.(pos) <- addr;
  t.ntouched <- t.ntouched + 1

(* Absorb journal entries written since the last call: the FIRST entry
   for an address carries its pristine byte (entries are appended in
   write order and scanned oldest-first). *)
let absorb t =
  let n = Memory.journal_length t.journal in
  for i = t.scanned to n - 1 do
    let addr, old = Memory.journal_entry t.journal i in
    if not (Hashtbl.mem t.pristine addr) then begin
      Hashtbl.add t.pristine addr old;
      insert_touched t addr
    end
  done;
  t.scanned <- n

let mark t = Memory.journal_length t.journal

let undo_to t m =
  absorb t;  (* pristine bytes must be harvested before truncation *)
  Memory.undo_to t.mem t.journal m;
  t.scanned <- m

let add_u32 b v =
  Buffer.add_char b (Char.chr (v land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xFF))

let key t =
  absorb t;
  let b = t.buf in
  Buffer.clear b;
  let regs = t.cpu.Cpu.regs in
  for i = 0 to 15 do
    add_u32 b regs.(i)
  done;
  let flags =
    (if t.cpu.Cpu.n then 8 else 0)
    lor (if t.cpu.Cpu.z then 4 else 0)
    lor (if t.cpu.Cpu.c then 2 else 0)
    lor if t.cpu.Cpu.v then 1 else 0
  in
  Buffer.add_char b (Char.chr flags);
  let drop = ref (Mutant.is State_key_byte) in
  for i = 0 to t.ntouched - 1 do
    let addr = t.touched.(i) in
    let cur = Memory.read_u8_exn t.mem addr in
    if cur <> Hashtbl.find t.pristine addr then
      if !drop then drop := false
      else begin
        add_u32 b addr;
        Buffer.add_char b (Char.chr cur)
      end
  done;
  Buffer.contents b

let save_regs t dst =
  Array.blit t.cpu.Cpu.regs 0 dst 0 16;
  (if t.cpu.Cpu.n then 8 else 0)
  lor (if t.cpu.Cpu.z then 4 else 0)
  lor (if t.cpu.Cpu.c then 2 else 0)
  lor if t.cpu.Cpu.v then 1 else 0

let restore_regs t src flags =
  Array.blit src 0 t.cpu.Cpu.regs 0 16;
  t.cpu.Cpu.n <- flags land 8 <> 0;
  t.cpu.Cpu.z <- flags land 4 <> 0;
  t.cpu.Cpu.c <- flags land 2 <> 0;
  t.cpu.Cpu.v <- flags land 1 <> 0

let touched_bytes t =
  absorb t;
  t.ntouched
