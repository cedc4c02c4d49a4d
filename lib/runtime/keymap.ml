(* A lock-free hash map from canonical state-key strings to small
   verdict integers, shared between worker domains.

   This is [Store] lifted from a dense integer index space (perturbed
   words) to sparse string keys (whole-machine states). The bucket
   array is fixed; each bucket is an [Atomic.t] holding an immutable
   list of entries, pushed with a CAS retry loop. Every entry keeps its
   FULL key, and [find] compares keys byte for byte — two states that
   merely collide on the bucket hash coexist in the list and are never
   merged, which is what makes state-hash pruning sound (a hash
   collision costs a list walk, never a wrong verdict).

   Lookups take the key as a prefix of a caller's reused buffer and
   neither hash nor compare it through an allocation; a key is copied
   to a string only when it is added. Both sides hash with [hash], so
   a string key and the same bytes in a buffer land in one bucket.

   Sharing between domains is sound under the same contract as [Store]:
   the mapped value must be a deterministic function of the key, so
   racing writers can only publish identical values. [add] re-checks
   for the key when its CAS fails, so a raced key is inserted exactly
   once and [count] is schedule-independent. *)

type entry = { key : string; hash : int; value : int }

type t = { buckets : entry list Atomic.t array; mask : int; added : int Atomic.t }

let rec next_pow2 n k = if k >= n then k else next_pow2 n (2 * k)

let create ?(slots = 1 lsl 16) () =
  if slots <= 0 then invalid_arg "Keymap.create";
  let n = next_pow2 slots 1 in
  { buckets = Array.init n (fun _ -> Atomic.make []);
    mask = n - 1;
    added = Atomic.make 0 }

(* Eight bytes at a time through the unboxed primitive; the value only
   picks a bucket inside this process, so host byte order is fine.
   [Int64.to_int] drops a word's bit 63, so it is folded back in at bit
   0: keys differing only there would otherwise share a bucket chain. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"

let hash b len =
  let h = ref len and i = ref 0 in
  while !i + 8 <= len do
    let w = get64 b !i in
    let w = Int64.to_int w lxor Int64.to_int (Int64.shift_right_logical w 63) in
    let x = (!h lxor w) * 0x100000001b3 in
    h := x lxor (x lsr 29);
    i := !i + 8
  done;
  while !i < len do
    h := (!h lxor Bytes.get_uint8 b !i) * 0x100000001b3;
    incr i
  done;
  let x = (!h lxor (!h lsr 33)) * 0x3f51afd7ed558ccd in
  x lxor (x lsr 33)

(* [key] equals the first [len] bytes of [b]. *)
let equal_prefix key b len =
  String.length key = len
  &&
  let k = Bytes.unsafe_of_string key in
  let i = ref 0 in
  while !i + 8 <= len && Int64.equal (get64 k !i) (get64 b !i) do
    i := !i + 8
  done;
  if !i + 8 <= len then false
  else begin
    while !i < len && Bytes.get_uint8 k !i = Bytes.get_uint8 b !i do
      incr i
    done;
    !i = len
  end

let rec find_in h b len = function
  | [] -> -1
  | e :: rest ->
    if e.hash = h && equal_prefix e.key b len then e.value else find_in h b len rest

let find_prefix t b len =
  let h = hash b len in
  find_in h b len (Atomic.get t.buckets.(h land t.mask))

let find t key =
  let v = find_prefix t (Bytes.unsafe_of_string key) (String.length key) in
  if v < 0 then None else Some v

let add t key value =
  if value < 0 then invalid_arg "Keymap.add: negative value";
  let b = Bytes.unsafe_of_string key and len = String.length key in
  let hash = hash b len in
  let bucket = t.buckets.(hash land t.mask) in
  let rec push () =
    let old = Atomic.get bucket in
    if find_in hash b len old >= 0 then ()
      (* lost the race; the winner's value is identical *)
    else if Atomic.compare_and_set bucket old ({ key; hash; value } :: old) then
      ignore (Atomic.fetch_and_add t.added 1)
    else push ()
  in
  push ()

let count t = Atomic.get t.added
