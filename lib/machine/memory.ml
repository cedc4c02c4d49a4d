type fault = Unmapped of int | Unaligned of int

exception Fault of fault

let pp_fault ppf = function
  | Unmapped a -> Fmt.pf ppf "unmapped access at 0x%08x" a
  | Unaligned a -> Fmt.pf ppf "unaligned access at 0x%08x" a

type region =
  | Ram of { base : int; data : Bytes.t }
  | Device of { base : int; size : int; read : int -> int; write : int -> int -> unit }

(* A write journal records (address, previous byte) pairs for every RAM
   byte store, packed as [(addr lsl 8) lor old] — addresses are below
   2^32 and OCaml ints are 63-bit, so the packing is exact. The
   exhaustive fault campaigns attach one journal per rig: undoing to a
   mark costs only the bytes actually dirtied since, instead of a
   whole-address-space snapshot blit, and the recorded pre-images are
   how the rig learns each byte's pristine value for state hashing. *)
type journal = { mutable packed : int array; mutable len : int }

(* Two last-hit caches, each a span [lo, hi) of one RAM region backed
   by its [data] (address [a] lives at offset [a - lo]): [cache_*] for
   data accesses, [fetch_*] for instruction fetches. A guard loop that
   loads from SRAM on every iteration would make a single cache flip
   between flash and SRAM twice per iteration, each flip a walk of the
   region list; with its own cache a fetch stays on flash while the
   loads stay on SRAM. An empty cache is encoded as [hi = 0], which no
   address satisfies. Devices are never cached: their handlers must run
   on every access. With a cache warm, an aligned halfword or word
   access is a bounds check plus one [Bytes] primitive — no list walk,
   no per-byte recursion, no allocation; a miss that lands in RAM
   repoints that cache with one allocation-free walk of the region
   list. Both caches hold the regions' own buffers, so stores through
   either path, journal undo, [restore] and [clear] are visible to both
   at once; only a change to the region list ([map], [add_device])
   empties them. *)
type t = {
  mutable regions : region list;
  mutable cache_lo : int;
  mutable cache_hi : int;
  mutable cache_data : Bytes.t;
  mutable fetch_lo : int;
  mutable fetch_hi : int;
  mutable fetch_data : Bytes.t;
  mutable journal : journal option;
}

let create () =
  { regions = []; cache_lo = 0; cache_hi = 0; cache_data = Bytes.empty;
    fetch_lo = 0; fetch_hi = 0; fetch_data = Bytes.empty; journal = None }

let journal_create () = { packed = Array.make 256 0; len = 0 }

let journal_note j addr old =
  let n = j.len in
  if n = Array.length j.packed then begin
    let bigger = Array.make (2 * n) 0 in
    Array.blit j.packed 0 bigger 0 n;
    j.packed <- bigger
  end;
  j.packed.(n) <- (addr lsl 8) lor old;
  j.len <- n + 1

let attach_journal t j = t.journal <- Some j
let detach_journal t = t.journal <- None
let journal_length j = j.len

let journal_entry j i =
  if i < 0 || i >= j.len then invalid_arg "Memory.journal_entry";
  let p = j.packed.(i) in
  (p lsr 8, p land 0xFF)

let invalidate_cache t =
  t.cache_lo <- 0;
  t.cache_hi <- 0;
  t.cache_data <- Bytes.empty;
  t.fetch_lo <- 0;
  t.fetch_hi <- 0;
  t.fetch_data <- Bytes.empty

let region_span = function
  | Ram { base; data } -> (base, base + Bytes.length data)
  | Device { base; size; _ } -> (base, base + size)

let overlaps t lo hi =
  List.exists
    (fun r ->
      let rlo, rhi = region_span r in
      lo < rhi && rlo < hi)
    t.regions

let check_new t ~addr ~size =
  if size <= 0 then invalid_arg "Memory: non-positive region size";
  if addr < 0 then invalid_arg "Memory: negative base address";
  if overlaps t addr (addr + size) then
    invalid_arg (Printf.sprintf "Memory: region 0x%08x+%d overlaps" addr size)

let map t ~addr ~size =
  check_new t ~addr ~size;
  t.regions <- Ram { base = addr; data = Bytes.make size '\000' } :: t.regions;
  invalidate_cache t

let add_device t ~addr ~size ~read ~write =
  check_new t ~addr ~size;
  t.regions <- Device { base = addr; size; read; write } :: t.regions;
  invalidate_cache t

let find t addr =
  List.find_opt
    (fun r ->
      let lo, hi = region_span r in
      addr >= lo && addr < hi)
    t.regions

(* Point the data cache ([fetch] = false) or the fetch cache at the
   RAM region holding [addr]; [false] when [addr] is in a device or
   unmapped. A plain match over the region list, so a cache miss on the
   unboxed paths allocates nothing. *)
let rec refill t ~fetch addr = function
  | [] -> false
  | Ram { base; data } :: rest ->
    if addr >= base && addr < base + Bytes.length data then begin
      if fetch then begin
        t.fetch_lo <- base;
        t.fetch_hi <- base + Bytes.length data;
        t.fetch_data <- data
      end
      else begin
        t.cache_lo <- base;
        t.cache_hi <- base + Bytes.length data;
        t.cache_data <- data
      end;
      true
    end
    else refill t ~fetch addr rest
  | Device { base; size; _ } :: rest ->
    if addr >= base && addr < base + size then false
    else refill t ~fetch addr rest

(* [addr, addr + n) inside the cached data region, after at most one
   refill on a miss. *)
let[@inline] cached t addr n =
  (addr >= t.cache_lo && addr + n <= t.cache_hi)
  || (refill t ~fetch:false addr t.regions && addr + n <= t.cache_hi)

let is_mapped t addr = find t addr <> None

let has_device t =
  List.exists (function Device _ -> true | Ram _ -> false) t.regions

let clear t =
  List.iter
    (function
      | Ram { data; _ } -> Bytes.fill data 0 (Bytes.length data) '\000'
      | Device _ -> ())
    t.regions

(* Slow paths: region-list search, one byte at a time, so accesses that
   straddle region boundaries, touch devices or fault behave exactly
   like the original per-byte protocol (including which address a
   fault names). A plain walk of the list, like [refill]: a device
   access or a fault allocates nothing but the fault itself. *)

let rec byte_read_in addr = function
  | [] -> raise (Fault (Unmapped addr))
  | Ram { base; data } :: rest ->
    if addr >= base && addr < base + Bytes.length data then
      Bytes.get_uint8 data (addr - base)
    else byte_read_in addr rest
  | Device { base; size; read; _ } :: rest ->
    if addr >= base && addr < base + size then read (addr - base) land 0xFF
    else byte_read_in addr rest

let byte_read t addr = byte_read_in addr t.regions

let rec byte_write_in t addr v = function
  | [] -> raise (Fault (Unmapped addr))
  | Ram { base; data } :: rest ->
    if addr >= base && addr < base + Bytes.length data then begin
      (match t.journal with
      | None -> ()
      | Some j -> journal_note j addr (Bytes.get_uint8 data (addr - base)));
      Bytes.set_uint8 data (addr - base) (v land 0xFF)
    end
    else byte_write_in t addr v rest
  | Device { base; size; write; _ } :: rest ->
    if addr >= base && addr < base + size then write (addr - base) (v land 0xFF)
    else byte_write_in t addr v rest

let byte_write t addr v = byte_write_in t addr v t.regions

(* Undo-side byte store: must not itself be journaled. *)
let poke_raw t addr v =
  if cached t addr 1 then Bytes.set_uint8 t.cache_data (addr - t.cache_lo) v
  else invalid_arg "Memory.undo_to: not RAM"

let undo_to t j mark =
  if mark < 0 || mark > j.len then invalid_arg "Memory.undo_to";
  (* newest first, so overlapping writes unwind to the oldest pre-image *)
  for i = j.len - 1 downto mark do
    let p = j.packed.(i) in
    poke_raw t (p lsr 8) (p land 0xFF)
  done;
  j.len <- mark

(* Unboxed accessors: check the cache (refilling it on a miss), fall
   back to the slow path. *)

let[@inline] read_u8_exn t addr =
  if cached t addr 1 then
    Bytes.get_uint8 t.cache_data (addr - t.cache_lo)
  else byte_read t addr

let append_changed t ~addrs ~pristine n buf pos =
  let len = ref pos in
  for i = 0 to n - 1 do
    let addr = addrs.(i) in
    let cur = read_u8_exn t addr in
    if cur <> pristine.(i) then begin
      Bytes.set_int32_le buf !len (Int32.of_int addr);
      Bytes.set_uint8 buf (!len + 4) cur;
      len := !len + 5
    end
  done;
  !len

(* Newest entry first: a store that changed its byte is most often a
   recent one, so a run whose memory moves fails on the first entries. *)
let rec unchanged_from t packed m i =
  i < m
  || (let p = packed.(i) in
      read_u8_exn t (p lsr 8) = p land 0xFF && unchanged_from t packed m (i - 1))

let journal_unchanged_since t j m =
  if m < 0 || m > j.len then invalid_arg "Memory.journal_unchanged_since";
  match t.journal with
  | Some attached when attached == j -> unchanged_from t j.packed m (j.len - 1)
  | Some _ | None -> false

let write_u8_exn t addr v =
  if cached t addr 1 then begin
    (match t.journal with
    | None -> ()
    | Some j ->
      journal_note j addr (Bytes.get_uint8 t.cache_data (addr - t.cache_lo)));
    Bytes.set_uint8 t.cache_data (addr - t.cache_lo) (v land 0xFF)
  end
  else byte_write t addr v

let read_u16_exn t addr =
  if addr land 1 <> 0 then raise (Fault (Unaligned addr))
  else if cached t addr 2 then
    Bytes.get_uint16_le t.cache_data (addr - t.cache_lo)
  else begin
    let b0 = byte_read t addr in
    let b1 = byte_read t (addr + 1) in
    b0 lor (b1 lsl 8)
  end

(* A hit leaves the data cache alone; anything the fetch cache cannot
   serve (a device, a straddle, a fault) is a plain [read_u16_exn]. *)
let fetch_u16_exn t addr =
  if
    addr land 1 = 0
    && ((addr >= t.fetch_lo && addr + 2 <= t.fetch_hi)
       || (refill t ~fetch:true addr t.regions && addr + 2 <= t.fetch_hi))
  then Bytes.get_uint16_le t.fetch_data (addr - t.fetch_lo)
  else read_u16_exn t addr

let fetch_window t =
  if t.fetch_hi = 0 then None else Some (t.fetch_lo, t.fetch_hi)

let write_u16_exn t addr v =
  if addr land 1 <> 0 then raise (Fault (Unaligned addr))
  else if cached t addr 2 then begin
    (match t.journal with
    | None -> ()
    | Some j ->
      let off = addr - t.cache_lo in
      journal_note j addr (Bytes.get_uint8 t.cache_data off);
      journal_note j (addr + 1) (Bytes.get_uint8 t.cache_data (off + 1)));
    Bytes.set_uint16_le t.cache_data (addr - t.cache_lo) (v land 0xFFFF)
  end
  else begin
    byte_write t addr v;
    byte_write t (addr + 1) (v lsr 8)
  end

let read_u32_exn t addr =
  if addr land 3 <> 0 then raise (Fault (Unaligned addr))
  else if cached t addr 4 then
    Int32.to_int (Bytes.get_int32_le t.cache_data (addr - t.cache_lo))
    land 0xFFFFFFFF
  else begin
    let b0 = byte_read t addr in
    let b1 = byte_read t (addr + 1) in
    let b2 = byte_read t (addr + 2) in
    let b3 = byte_read t (addr + 3) in
    b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)
  end

let write_u32_exn t addr v =
  if addr land 3 <> 0 then raise (Fault (Unaligned addr))
  else if cached t addr 4 then begin
    (match t.journal with
    | None -> ()
    | Some j ->
      let off = addr - t.cache_lo in
      for k = 0 to 3 do
        journal_note j (addr + k) (Bytes.get_uint8 t.cache_data (off + k))
      done);
    Bytes.set_int32_le t.cache_data (addr - t.cache_lo) (Int32.of_int v)
  end
  else begin
    byte_write t addr v;
    byte_write t (addr + 1) (v lsr 8);
    byte_write t (addr + 2) (v lsr 16);
    byte_write t (addr + 3) (v lsr 24)
  end

(* Result-typed API, kept for callers outside the hot loop. *)

let read_u8 t addr =
  match read_u8_exn t addr with v -> Ok v | exception Fault f -> Error f

let read_u16 t addr =
  match read_u16_exn t addr with v -> Ok v | exception Fault f -> Error f

let read_u32 t addr =
  match read_u32_exn t addr with v -> Ok v | exception Fault f -> Error f

let write_u8 t addr v =
  match write_u8_exn t addr v with () -> Ok () | exception Fault f -> Error f

let write_u16 t addr v =
  match write_u16_exn t addr v with () -> Ok () | exception Fault f -> Error f

let write_u32 t addr v =
  match write_u32_exn t addr v with () -> Ok () | exception Fault f -> Error f

let load_bytes t ~addr b =
  let len = Bytes.length b in
  match find t addr with
  | Some (Ram { base; data }) when addr + len <= base + Bytes.length data ->
    (match t.journal with
    | None -> ()
    | Some j ->
      for i = 0 to len - 1 do
        journal_note j (addr + i) (Bytes.get_uint8 data (addr - base + i))
      done);
    Bytes.blit b 0 data (addr - base) len
  | _ ->
    (* Straddles regions or touches a device: byte-by-byte. *)
    Bytes.iteri
      (fun i c ->
        match byte_write t (addr + i) (Char.code c) with
        | () -> ()
        | exception Fault _ ->
          invalid_arg
            (Printf.sprintf "Memory.load_bytes: 0x%08x is not mapped" (addr + i)))
      b

type snapshot = (int * Bytes.t) list

let snapshot t =
  List.filter_map
    (function
      | Ram { base; data } -> Some (base, Bytes.copy data)
      | Device _ -> None)
    t.regions

(* The snapshot lists the RAM regions in region-list order, so restore
   walks both lists in step: no closure and no [find] option per run. *)
let rec restore_regions regions snap =
  match (regions, snap) with
  | [], [] -> ()
  | Device _ :: regions, _ -> restore_regions regions snap
  | Ram { base; data } :: regions, (saved_base, saved) :: snap
    when base = saved_base && Bytes.length data = Bytes.length saved ->
    Bytes.blit saved 0 data 0 (Bytes.length saved);
    restore_regions regions snap
  | Ram _ :: _, _ | [], _ :: _ ->
    invalid_arg "Memory.restore: mismatched snapshot"

let restore t snap = restore_regions t.regions snap
