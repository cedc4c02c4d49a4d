(* Tests for the machine substrate: memory mapping/faults, CPU flag
   semantics, executor behaviour on full programs, and the outcome
   taxonomy used by the glitch emulator. *)

open Machine

let stop_testable = Alcotest.testable Exec.pp_stop Exec.stop_equal

(* Run an assembly snippet to completion and return (stop, cpu). *)
let run_asm ?max_steps src =
  let t = Loader.load_asm src in
  let stop = Exec.run ?max_steps t.mem t.cpu in
  (stop, t.cpu, t)

let reg cpu r = Exec.get cpu (Thumb.Reg.of_int r)

(* --- memory ------------------------------------------------------------- *)

let memory_mapping () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~size:0x100;
  Alcotest.(check bool) "mapped" true (Memory.is_mapped m 0x10FF);
  Alcotest.(check bool) "not mapped" false (Memory.is_mapped m 0x1100);
  (match Memory.write_u32 m 0x1000 0xDEADBEEF with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "write failed");
  (match Memory.read_u32 m 0x1000 with
  | Ok v -> Alcotest.(check int) "roundtrip" 0xDEADBEEF v
  | Error _ -> Alcotest.fail "read failed");
  (match Memory.read_u16 m 0x1001 with
  | Error (Memory.Unaligned _) -> ()
  | Ok _ | Error (Memory.Unmapped _) -> Alcotest.fail "expected unaligned fault");
  match Memory.read_u8 m 0x2000 with
  | Error (Memory.Unmapped 0x2000) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected unmapped fault"

let memory_overlap_rejected () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~size:0x100;
  match Memory.map m ~addr:0x10F0 ~size:0x100 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "overlap must be rejected"

let memory_device () =
  let m = Memory.create () in
  let last = ref (-1) in
  Memory.add_device m ~addr:0x4800 ~size:4
    ~read:(fun off -> off + 1)
    ~write:(fun off v -> last := (off lsl 8) lor v);
  (match Memory.write_u8 m 0x4802 0xAB with
  | Ok () -> Alcotest.(check int) "device write" 0x2AB !last
  | Error _ -> Alcotest.fail "device write failed");
  match Memory.read_u8 m 0x4803 with
  | Ok v -> Alcotest.(check int) "device read" 4 v
  | Error _ -> Alcotest.fail "device read failed"

let memory_little_endian () =
  let m = Memory.create () in
  Memory.map m ~addr:0 ~size:16;
  (match Memory.write_u32 m 0 0x11223344 with Ok () -> () | Error _ -> assert false);
  match Memory.read_u8 m 0 with
  | Ok v -> Alcotest.(check int) "lsb first" 0x44 v
  | Error _ -> Alcotest.fail "read failed"

(* The unboxed accessors must agree with the result API in every
   regime: cached-region fast path, region-straddling slow path, device
   dispatch, and faults raised as [Memory.Fault]. *)

let memory_exn_api () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~size:0x100;
  Memory.write_u32_exn m 0x1000 0xDEADBEEF;
  Alcotest.(check int) "u32 roundtrip" 0xDEADBEEF (Memory.read_u32_exn m 0x1000);
  Alcotest.(check int) "u16 low half" 0xBEEF (Memory.read_u16_exn m 0x1000);
  Memory.write_u16_exn m 0x1002 0x1234;
  Alcotest.(check int) "u16 patch" 0x1234BEEF (Memory.read_u32_exn m 0x1000);
  (match Memory.read_u16_exn m 0x1001 with
  | exception Memory.Fault (Memory.Unaligned 0x1001) -> ()
  | _ -> Alcotest.fail "expected unaligned Fault");
  match Memory.read_u8_exn m 0x2000 with
  | exception Memory.Fault (Memory.Unmapped 0x2000) -> ()
  | _ -> Alcotest.fail "expected unmapped Fault"

let memory_straddles_regions () =
  (* An aligned word access spanning two adjacent RAM regions must fall
     back to the per-byte path and still succeed. *)
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~size:2;
  Memory.map m ~addr:0x1002 ~size:4;
  Memory.write_u32_exn m 0x1000 0xCAFEF00D;
  Alcotest.(check int) "straddling word" 0xCAFEF00D (Memory.read_u32_exn m 0x1000);
  Alcotest.(check int) "low region byte" 0x0D (Memory.read_u8_exn m 0x1000);
  Alcotest.(check int) "high region byte" 0xCA (Memory.read_u8_exn m 0x1003);
  (* a word whose tail is unmapped faults with the first missing byte *)
  match Memory.read_u32_exn m 0x1004 with
  | exception Memory.Fault (Memory.Unmapped 0x1006) -> ()
  | _ -> Alcotest.fail "expected fault at first unmapped byte"

let memory_cache_tracks_regions () =
  (* Alternating between regions (and a device) must never let the
     last-hit cache serve stale mappings. *)
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~size:16;
  Memory.map m ~addr:0x3000 ~size:16;
  let written = ref [] in
  Memory.add_device m ~addr:0x5000 ~size:4
    ~read:(fun off -> 0x40 + off)
    ~write:(fun off v -> written := (off, v) :: !written);
  Memory.write_u16_exn m 0x1000 0x1111;
  Memory.write_u16_exn m 0x3000 0x3333;
  Memory.write_u8_exn m 0x5001 0xAB;
  Alcotest.(check int) "region A" 0x1111 (Memory.read_u16_exn m 0x1000);
  Alcotest.(check int) "region B" 0x3333 (Memory.read_u16_exn m 0x3000);
  Alcotest.(check int) "device read" 0x42 (Memory.read_u8_exn m 0x5002);
  Alcotest.(check (list (pair int int))) "device write seen" [ (1, 0xAB) ]
    !written

(* Instruction fetches keep a last-hit region of their own
   ([Memory.fetch_u16_exn]), so a load from SRAM between two fetches
   from flash moves only the data cache. Whatever the interleaving, a
   fetch must see every change to the bytes it reads: a store through
   the data path, a journal undo, [restore], [clear] and a new mapping.
   A device is never cached (its handler runs on every fetch), and a
   bad fetch faults at the address [read_u16_exn] names. *)
let memory_fetch_cache_tracks_regions () =
  let flash = 0x1000 and sram = 0x3000 in
  let m = Memory.create () in
  Memory.map m ~addr:flash ~size:16;
  Memory.map m ~addr:sram ~size:16;
  Memory.write_u16_exn m flash 0x1111;
  Memory.write_u16_exn m sram 0x5555;
  let window = Alcotest.(option (pair int int)) in
  (* fetch, load from SRAM, fetch again *)
  let fetches name expected addr =
    Alcotest.(check int) (name ^ ": fetch") expected (Memory.fetch_u16_exn m addr);
    ignore (Memory.read_u16_exn m sram);
    Alcotest.(check int) (name ^ ": fetch after a load") expected
      (Memory.fetch_u16_exn m addr);
    Alcotest.(check int) (name ^ ": a data read agrees") expected
      (Memory.read_u16_exn m addr)
  in
  Alcotest.check window "empty before the first fetch" None (Memory.fetch_window m);
  fetches "initial" 0x1111 flash;
  Alcotest.check window "a load leaves the fetch cache on flash"
    (Some (flash, flash + 16)) (Memory.fetch_window m);
  let snap = Memory.snapshot m in
  Memory.write_u16_exn m flash 0x2222;
  fetches "rewritten by write_u16_exn" 0x2222 flash;
  let j = Memory.journal_create () in
  Memory.attach_journal m j;
  Memory.write_u16_exn m flash 0x3333;
  fetches "journaled store" 0x3333 flash;
  Memory.undo_to m j 0;
  fetches "undone journal" 0x2222 flash;
  Memory.detach_journal m;
  Memory.restore m snap;
  fetches "restore" 0x1111 flash;
  Memory.clear m;
  fetches "clear" 0 flash;
  Memory.map m ~addr:0x8000 ~size:16;
  Alcotest.check window "a new map empties the fetch cache" None
    (Memory.fetch_window m);
  Memory.write_u16_exn m 0x8000 0x7777;
  fetches "new map" 0x7777 0x8000;
  fetches "flash after the new map" 0 flash;
  let reads = ref 0 in
  Memory.add_device m ~addr:0x5000 ~size:4
    ~read:(fun off -> incr reads; 0x40 + off)
    ~write:(fun _ _ -> ());
  Alcotest.check window "a new device empties the fetch cache" None
    (Memory.fetch_window m);
  ignore (Memory.fetch_u16_exn m flash);
  for _ = 1 to 3 do
    Alcotest.(check int) "device fetch" 0x4140 (Memory.fetch_u16_exn m 0x5000)
  done;
  Alcotest.(check int) "the device is read on every fetch" 6 !reads;
  Alcotest.check window "a device fetch leaves the fetch cache as it was"
    (Some (flash, flash + 16)) (Memory.fetch_window m);
  (* a halfword whose second byte is unmapped faults there *)
  Memory.map m ~addr:0x9000 ~size:1;
  let fault f addr =
    match f m addr with
    | exception Memory.Fault e -> Some (Fmt.str "%a" Memory.pp_fault e)
    | _ -> None
  in
  List.iter
    (fun addr ->
      ignore (Memory.fetch_u16_exn m flash);
      let expected = fault Memory.read_u16_exn addr in
      Alcotest.(check bool) (Printf.sprintf "a read at 0x%x faults" addr) true
        (expected <> None);
      Alcotest.(check (option string)) (Printf.sprintf "fetch fault at 0x%x" addr)
        expected (fault Memory.fetch_u16_exn addr))
    [ flash + 1; flash + 16; 0x2000; 0x5003; 0x5004; 0x9000 ]

(* A cache miss refills the cache and retries the fast path only when
   the whole access lies in one RAM region. Straddling, device and
   unmapped accesses keep the per-byte protocol: the fault names the
   first byte that is missing, alignment is checked first, and a write
   that faults part-way leaves its earlier bytes written and
   journaled. A refilled write journals exactly what the fast path
   does: each byte's pre-image, in address order. *)
let memory_fault_addresses () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~size:6;
  Memory.map m ~addr:0x3000 ~size:16;
  let j = Memory.journal_create () in
  Memory.attach_journal m j;
  let faults name expected f =
    match f () with
    | exception Memory.Fault got ->
      Alcotest.(check string) name
        (Fmt.str "%a" Memory.pp_fault expected)
        (Fmt.str "%a" Memory.pp_fault got)
    | () -> Alcotest.failf "%s: expected a fault" name
  in
  let read f addr () = ignore (f m addr) in
  let write f addr () = f m addr 0xA1B2C3D4 in
  faults "u32 read straddling the end" (Memory.Unmapped 0x1006)
    (read Memory.read_u32_exn 0x1004);
  faults "u16 read unmapped" (Memory.Unmapped 0x2000) (read Memory.read_u16_exn 0x2000);
  faults "u32 read unmapped" (Memory.Unmapped 0x2000) (read Memory.read_u32_exn 0x2000);
  faults "u16 write unmapped" (Memory.Unmapped 0x2000) (write Memory.write_u16_exn 0x2000);
  faults "u32 write unmapped" (Memory.Unmapped 0x2000) (write Memory.write_u32_exn 0x2000);
  faults "u16 read unaligned" (Memory.Unaligned 0x3001) (read Memory.read_u16_exn 0x3001);
  faults "u32 write unaligned" (Memory.Unaligned 0x3002) (write Memory.write_u32_exn 0x3002);
  faults "unaligned before unmapped" (Memory.Unaligned 0x2001)
    (read Memory.read_u32_exn 0x2001);
  Alcotest.(check int) "no journal entries before a store" 0 (Memory.journal_length j);
  faults "u32 write straddling the end" (Memory.Unmapped 0x1006)
    (write Memory.write_u32_exn 0x1004);
  let entries () =
    List.init (Memory.journal_length j) (Memory.journal_entry j)
  in
  Alcotest.(check (list (pair int int))) "partial write journaled"
    [ (0x1004, 0); (0x1005, 0) ] (entries ());
  Alcotest.(check int) "partial write landed" 0xC3D4 (Memory.read_u16_exn m 0x1004);
  Memory.write_u32_exn m 0x3004 0x11223344;
  ignore (Memory.read_u8_exn m 0x1000);
  (* the cache now holds the first region: the next two stores refill *)
  Memory.write_u32_exn m 0x3004 0x55667788;
  ignore (Memory.read_u8_exn m 0x1000);
  Memory.write_u16_exn m 0x3008 0xBEEF;
  Alcotest.(check (list (pair int int))) "refilled writes journaled"
    [ (0x1004, 0); (0x1005, 0);
      (0x3004, 0); (0x3005, 0); (0x3006, 0); (0x3007, 0);
      (0x3004, 0x44); (0x3005, 0x33); (0x3006, 0x22); (0x3007, 0x11);
      (0x3008, 0); (0x3009, 0) ]
    (entries ());
  Alcotest.(check int) "refilled word" 0x55667788 (Memory.read_u32_exn m 0x3004);
  Memory.undo_to m j 0;
  Alcotest.(check int) "undo restores the word" 0 (Memory.read_u32_exn m 0x3004);
  Alcotest.(check int) "undo restores the partial write" 0 (Memory.read_u16_exn m 0x1004)

let memory_load_bytes_blit () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~size:8;
  Memory.load_bytes m ~addr:0x1004 (Bytes.of_string "\x0D\xF0\xFE\xCA");
  Alcotest.(check int) "blit contents" 0xCAFEF00D (Memory.read_u32_exn m 0x1004)

(* Restore walks the regions and the snapshot in step, skipping devices:
   every RAM region comes back, and a snapshot of a differently shaped
   memory is rejected. *)
let memory_restore_regions () =
  let shaped sizes =
    let m = Memory.create () in
    Memory.map m ~addr:0x1000 ~size:(fst sizes);
    Memory.add_device m ~addr:0x2000 ~size:4 ~read:(fun _ -> 0) ~write:(fun _ _ -> ());
    Memory.map m ~addr:0x3000 ~size:(snd sizes);
    m
  in
  let m = shaped (8, 8) in
  Memory.write_u32_exn m 0x1000 0x11223344;
  Memory.write_u32_exn m 0x3004 0x55667788;
  let snap = Memory.snapshot m in
  Memory.clear m;
  Memory.restore m snap;
  Alcotest.(check int) "first region" 0x11223344 (Memory.read_u32_exn m 0x1000);
  Alcotest.(check int) "region past the device" 0x55667788
    (Memory.read_u32_exn m 0x3004);
  Alcotest.check_raises "differently sized region"
    (Invalid_argument "Memory.restore: mismatched snapshot") (fun () ->
      Memory.restore (shaped (8, 16)) snap)

(* --- flag semantics ------------------------------------------------------ *)

let flags_add_sub () =
  let stop, cpu, _ = run_asm "movs r0, #0\nsubs r0, #1\nbkpt #0" in
  Alcotest.check stop_testable "halts" (Exec.Breakpoint 0) stop;
  Alcotest.(check int) "0 - 1 wraps" 0xFFFFFFFF (reg cpu 0);
  Alcotest.(check bool) "N set" true cpu.n;
  Alcotest.(check bool) "C clear (borrow)" false cpu.c;
  let _, cpu, _ = run_asm "movs r0, #5\nsubs r0, #5\nbkpt #0" in
  Alcotest.(check bool) "Z set" true cpu.z;
  Alcotest.(check bool) "C set (no borrow)" true cpu.c

let flags_overflow () =
  (* 0x7FFFFFFF + 1 overflows: build 0x7FFFFFFF as (1 << 31) - 1. *)
  let src =
    "movs r0, #1\nlsls r0, r0, #31\nsubs r0, #1\nmovs r1, #1\nadds r0, r0, r1\nbkpt #0"
  in
  let _, cpu, _ = run_asm src in
  Alcotest.(check bool) "V set" true cpu.v;
  Alcotest.(check bool) "N set" true cpu.n

let flags_logical () =
  let _, cpu, _ = run_asm "movs r0, #0xF0\nmovs r1, #0x0F\ntst r0, r1\nbkpt #0" in
  Alcotest.(check bool) "Z set by tst" true cpu.z

let shift_carry () =
  let _, cpu, _ = run_asm "movs r0, #3\nlsrs r0, r0, #1\nbkpt #0" in
  Alcotest.(check int) "3 >> 1" 1 (reg cpu 0);
  Alcotest.(check bool) "carry = shifted-out bit" true cpu.c

(* --- conditional branch semantics --------------------------------------- *)

let cond_branches () =
  (* For every condition, run: cmp that makes it true, branch, marker. *)
  let check_taken name src expected =
    let _, cpu, _ = run_asm src in
    Alcotest.(check int) name expected (reg cpu 0)
  in
  check_taken "beq taken"
    "movs r1, #4\ncmp r1, #4\nbeq yes\nmovs r0, #1\nbkpt #0\nyes:\nmovs r0, #2\nbkpt #0"
    2;
  check_taken "bne not taken"
    "movs r1, #4\ncmp r1, #4\nbne yes\nmovs r0, #1\nbkpt #0\nyes:\nmovs r0, #2\nbkpt #0"
    1;
  check_taken "blt signed"
    "movs r1, #0\nsubs r1, #1\ncmp r1, #1\nblt yes\nmovs r0, #1\nbkpt #0\nyes:\nmovs r0, #2\nbkpt #0"
    2;
  check_taken "bhi unsigned"
    "movs r1, #0\nsubs r1, #1\ncmp r1, #1\nbhi yes\nmovs r0, #1\nbkpt #0\nyes:\nmovs r0, #2\nbkpt #0"
    2;
  check_taken "bge equal"
    "movs r1, #7\ncmp r1, #7\nbge yes\nmovs r0, #1\nbkpt #0\nyes:\nmovs r0, #2\nbkpt #0"
    2

(* --- memory instructions -------------------------------------------------- *)

let load_store_roundtrip () =
  let src =
    {|
      movs r0, #0xAB
      str  r0, [sp, #4]
      ldr  r1, [sp, #4]
      mov  r2, sp
      strb r0, [r2, #1]
      ldrb r3, [r2, #1]
      bkpt #0
    |}
  in
  let _, cpu, _ = run_asm src in
  Alcotest.(check int) "word" 0xAB (reg cpu 1);
  Alcotest.(check int) "byte" 0xAB (reg cpu 3)

let push_pop_stack () =
  let src =
    {|
      movs r4, #1
      movs r5, #2
      push {r4, r5}
      movs r4, #0
      movs r5, #0
      pop  {r4, r5}
      bkpt #0
    |}
  in
  let _, cpu, _ = run_asm src in
  Alcotest.(check int) "r4 restored" 1 (reg cpu 4);
  Alcotest.(check int) "r5 restored" 2 (reg cpu 5)

let bl_and_bx () =
  let src =
    {|
      movs r0, #0
      bl   callee
      adds r0, #10
      bkpt #0
    callee:
      adds r0, #1
      bx   lr
    |}
  in
  let _, cpu, _ = run_asm src in
  Alcotest.(check int) "call then return" 11 (reg cpu 0)

let sign_extension () =
  let src =
    {|
      movs r0, #0xFF
      mov  r2, sp
      strb r0, [r2, #0]
      movs r1, #0
      ldsb r3, [r2, r1]
      bkpt #0
    |}
  in
  let _, cpu, _ = run_asm src in
  Alcotest.(check int) "ldsb sign extends" 0xFFFFFFFF (reg cpu 3)

(* --- outcome taxonomy ------------------------------------------------------ *)

let bad_read_reported () =
  let stop, _, _ = run_asm "movs r0, #0\nldr r1, [r0, #0]\nbkpt #0" in
  Alcotest.check stop_testable "bad read at 0" (Exec.Bad_read 0) stop

let bad_fetch_reported () =
  (* BX to an unmapped (thumb) address, then fetch faults there. *)
  let stop, _, _ = run_asm "movs r0, #5\nbx r0\nbkpt #0" in
  Alcotest.check stop_testable "bad fetch" (Exec.Bad_fetch 4) stop

let invalid_instruction_reported () =
  let t = Loader.load_instrs [ Thumb.Instr.Undefined 0xE801 ] in
  let stop = Exec.run t.mem t.cpu in
  Alcotest.check stop_testable "invalid" (Exec.Invalid_instruction 0xE801) stop

let step_limit_reported () =
  let stop, _, _ = run_asm ~max_steps:50 "loop:\nb loop" in
  Alcotest.check stop_testable "spin" Exec.Step_limit stop

let paper_while_not_a_loops_forever () =
  (* Table I(a)'s guard: while(!a) with a = 0 never exits un-glitched. *)
  let src =
    "movs r3, #0\nstr r3, [sp, #4]\nloop:\nldr r3, [sp, #4]\ncmp r3, #0\nbeq loop\nmovs r0, #0xAA\nbkpt #0"
  in
  let stop, _, _ = run_asm ~max_steps:1000 src in
  Alcotest.check stop_testable "infinite loop" Exec.Step_limit stop

let glitched_beq_exits_loop () =
  (* Corrupt the beq into a nop (the paper's headline effect) and the
     loop exits with the success marker. *)
  let src =
    "movs r3, #0\nstr r3, [sp, #4]\nloop:\nldr r3, [sp, #4]\ncmp r3, #0\nbeq loop\nmovs r0, #0xAA\nbkpt #0"
  in
  let t = Loader.load_asm src in
  Loader.patch_word t ~index:4 0x0000 (* beq -> movs r0, r0 *);
  let stop = Exec.run ~max_steps:1000 t.mem t.cpu in
  Alcotest.check stop_testable "exits" (Exec.Breakpoint 0) stop;
  Alcotest.(check int) "success marker" 0xAA (reg t.cpu 0)

let zero_rule () =
  (* Figure 2(c)'s ISA change is an argument of Exec: with it a fetched
     0x0000 stops the run where it stands; without it the word runs as
     movs r0, r0, which keeps r0 and clears the N flag cmp set. *)
  let load () =
    let t = Loader.load_asm "movs r0, #5\ncmp r0, #9\nmovs r1, #0\nbkpt #0" in
    Loader.patch_word t ~index:2 0x0000;
    t
  in
  let t = load () in
  Alcotest.check stop_testable "refused" (Exec.Invalid_instruction 0)
    (Exec.run ~zero_is_invalid:true t.mem t.cpu);
  Alcotest.(check int) "stopped at the zero word" (t.layout.flash_base + 4)
    (Exec.pc t.cpu);
  Alcotest.(check bool) "N still set" true t.cpu.n;
  let t = load () in
  Alcotest.check stop_testable "executed" (Exec.Breakpoint 0) (Exec.run t.mem t.cpu);
  Alcotest.(check int) "r0 kept" 5 (reg t.cpu 0);
  Alcotest.(check bool) "movs r0, r0 cleared N" false t.cpu.n

(* --- wider ALU semantics --------------------------------------------------- *)

let carry_chain_adc () =
  (* 64-bit add via ADDS/ADCS: 0xFFFFFFFF + 1 carries into the high word *)
  let src =
    {|
      movs r0, #0
      mvns r0, r0        ; r0 = 0xFFFFFFFF (low a)
      movs r1, #2        ; high a
      movs r2, #1        ; low b
      movs r3, #3        ; high b
      adds r0, r0, r2    ; low sum, sets carry
      adcs r1, r3        ; high sum + carry
      bkpt #0
    |}
  in
  let _, cpu, _ = run_asm src in
  Alcotest.(check int) "low word wraps" 0 (reg cpu 0);
  Alcotest.(check int) "carry propagated" 6 (reg cpu 1)

let sbc_borrow () =
  let src =
    {|
      movs r0, #0
      movs r1, #1
      subs r0, r0, r1    ; 0 - 1: borrow (C clear)
      movs r2, #5
      movs r3, #2
      sbcs r2, r3        ; 5 - 2 - borrow = 2
      bkpt #0
    |}
  in
  let _, cpu, _ = run_asm src in
  Alcotest.(check int) "sbc applies borrow" 2 (reg cpu 2)

let rotate_and_bic () =
  let src =
    {|
      movs r0, #0x81
      movs r1, #4
      rors r0, r1        ; rotate right by 4
      movs r2, #0xFF
      movs r3, #0x0F
      bics r2, r3        ; 0xFF & ~0x0F
      bkpt #0
    |}
  in
  let _, cpu, _ = run_asm src in
  Alcotest.(check int) "ror" 0x10000008 (reg cpu 0);
  Alcotest.(check int) "bic" 0xF0 (reg cpu 2)

let mul_and_cmn () =
  let _, cpu, _ =
    run_asm "movs r0, #7
movs r1, #6
muls r0, r1
movs r2, #0
cmn r2, r2
bkpt #0"
  in
  Alcotest.(check int) "mul" 42 (reg cpu 0);
  Alcotest.(check bool) "cmn 0 0 sets Z" true cpu.z

let stmia_ldmia_roundtrip () =
  let src =
    {|
      movs r0, #1
      movs r1, #2
      movs r2, #3
      mov  r4, sp
      subs r4, #64
      movs r5, #0
      movs r5, r4        ; base copy
      stmia r4!, {r0, r1, r2}
      movs r0, #0
      movs r1, #0
      movs r2, #0
      ldmia r5!, {r0, r1, r2}
      bkpt #0
    |}
  in
  let _, cpu, _ = run_asm src in
  Alcotest.(check int) "r0" 1 (reg cpu 0);
  Alcotest.(check int) "r1" 2 (reg cpu 1);
  Alcotest.(check int) "r2" 3 (reg cpu 2);
  (* writeback: both bases advanced by 12 *)
  Alcotest.(check int) "writeback" (reg cpu 5) (reg cpu 4 - 0 + 0) |> ignore;
  Alcotest.(check int) "bases advanced equally" (reg cpu 4) (reg cpu 5)

let ldr_pc_aligns () =
  (* LDR Rd, [PC, #imm] aligns the base down to a word boundary *)
  let src = "ldr r0, [pc, #4]\nbkpt #0\nnop\nnop\nlit:\n.word 0xCAFEF00D" in
  let _, cpu, _ = run_asm src in
  Alcotest.(check int) "pc-relative literal" 0xCAFEF00D (reg cpu 0)

let hi_add_pc_branches () =
  (* ADD PC, Rm acts as an indirect branch *)
  let src =
    {|
      movs r0, #2
      add  pc, r0        ; skip the next two halfwords
      bkpt #1
      bkpt #2
      movs r1, #99
      bkpt #0
    |}
  in
  let stop, cpu, _ = run_asm src in
  Alcotest.check stop_testable "lands past the traps" (Exec.Breakpoint 0) stop;
  Alcotest.(check int) "marker" 99 (reg cpu 1)

(* Robustness: no decoded instruction may crash the emulator, whatever
   the machine state. Outcomes must always be a step_result. *)
let prop_step_total =
  QCheck.Test.make ~name:"executor is total over random words" ~count:2000
    QCheck.(pair (int_bound 0xFFFF) (int_bound 0xFFFF))
    (fun (word, r0) ->
      let t =
        Loader.load_instrs [ Thumb.Decode.instr word; Thumb.Instr.Bkpt 0 ]
      in
      Exec.set t.cpu Thumb.Reg.r0 r0;
      match Exec.run ~max_steps:16 t.mem t.cpu with
      | (_ : Exec.stop) -> true)

(* Branch target arithmetic: pc' = pc + 4 + 2*offset for taken branches. *)
let prop_branch_target =
  QCheck.Test.make ~name:"taken branch target arithmetic" ~count:200
    (QCheck.int_range 1 100)
    (fun off ->
      let t =
        Loader.load_instrs
          [ Thumb.Instr.Imm (MOVi, Thumb.Reg.r0, 0);
            Thumb.Instr.Imm (CMPi, Thumb.Reg.r0, 0);
            Thumb.Instr.B_cond (EQ, off) ]
      in
      (* step three times; after the branch, pc = base + 4 + 4 + 2*off *)
      let base = t.layout.flash_base in
      ignore (Exec.step t.mem t.cpu);
      ignore (Exec.step t.mem t.cpu);
      ignore (Exec.step t.mem t.cpu);
      Exec.pc t.cpu = base + 4 + 4 + (2 * off))

(* --- property: ADD/SUB flags agree with wide-integer reference ---------- *)

let prop_adds_flags =
  QCheck.Test.make ~name:"adds matches 64-bit reference" ~count:1000
    QCheck.(pair (int_bound 0xFFFF) (int_bound 0xFF))
    (fun (a, b) ->
      (* movs r0, #lo; lsls to build a; adds r0, #b — then compare. *)
      let t = Loader.load_instrs
          Thumb.Instr.
            [ Imm (MOVi, Thumb.Reg.r0, (a lsr 8) land 0xFF);
              Shift (Lsl, Thumb.Reg.r0, Thumb.Reg.r0, 8);
              Imm (ADDi, Thumb.Reg.r0, a land 0xFF);
              Imm (ADDi, Thumb.Reg.r0, b);
              Bkpt 0 ]
      in
      let stop = Exec.run t.mem t.cpu in
      stop = Exec.Breakpoint 0
      && Exec.get t.cpu Thumb.Reg.r0 = (a + b) land 0xFFFFFFFF
      && t.cpu.z = ((a + b) land 0xFFFFFFFF = 0)
      && t.cpu.n = ((a + b) land 0x80000000 <> 0))

let prop_cmp_eq_iff_equal =
  QCheck.Test.make ~name:"cmp sets Z iff operands equal" ~count:500
    QCheck.(pair (int_bound 0xFF) (int_bound 0xFF))
    (fun (a, b) ->
      let t = Loader.load_instrs
          Thumb.Instr.
            [ Imm (MOVi, Thumb.Reg.r0, a); Imm (MOVi, Thumb.Reg.r1, b);
              Alu (CMPr, Thumb.Reg.r0, Thumb.Reg.r1); Bkpt 0 ]
      in
      let (_ : Exec.stop) = Exec.run t.mem t.cpu in
      t.cpu.z = (a = b))

(* --- differential: Exec against the reference executor ------------------- *)

(* Every halfword [Thumb.Decode.table] holds, plus the zero rule's
   [Undefined 0], executed by [Exec.execute] and by [Exec_oracle.execute]
   (the executor before the register rules moved into [Exec]), each on
   its own copy of one seeded machine state: r0-r15 drawn from raw
   words, SRAM addresses and small values, PC in flash, SP in SRAM,
   random NZCV, random flash and SRAM bytes on the snippet layout. Both
   memories journal their stores, so equal journals plus equal bytes at
   the journaled addresses mean equal memory; undoing the journal puts
   the state back for the next word. *)
let exec_matches_oracle () =
  let layout = Loader.snippet_layout in
  let instrs =
    Array.append Thumb.Decode.table [| Exec.decode ~zero_is_invalid:true 0 |]
  in
  let a = Loader.load_instrs ~layout [] and b = Loader.load_instrs ~layout [] in
  let check_state seed =
    let rng = Random.State.make [| seed |] in
    let word () = Int32.to_int (Random.State.bits32 rng) land 0xFFFFFFFF in
    let in_sram () = layout.sram_base + (4 * Random.State.int rng (layout.sram_size / 4)) in
    let regs =
      Array.init 16 (fun _ ->
          match Random.State.int rng 3 with
          | 0 -> word ()
          | 1 -> in_sram ()
          | _ -> Random.State.int rng 256)
    in
    regs.(13) <- in_sram ();
    regs.(15) <- layout.flash_base + (2 * Random.State.int rng (layout.flash_size / 2));
    let flags = Array.init 4 (fun _ -> Random.State.bool rng) in
    let fill addr size =
      let bytes = Bytes.init size (fun _ -> Char.chr (Random.State.int rng 256)) in
      Memory.load_bytes a.mem ~addr bytes;
      Memory.load_bytes b.mem ~addr bytes
    in
    Memory.detach_journal a.mem;
    Memory.detach_journal b.mem;
    fill layout.flash_base layout.flash_size;
    fill layout.sram_base layout.sram_size;
    let ja = Memory.journal_create () and jb = Memory.journal_create () in
    Memory.attach_journal a.mem ja;
    Memory.attach_journal b.mem jb;
    let set_state (cpu : Cpu.t) =
      Array.blit regs 0 cpu.regs 0 16;
      cpu.n <- flags.(0);
      cpu.z <- flags.(1);
      cpu.c <- flags.(2);
      cpu.v <- flags.(3)
    in
    Array.iteri
      (fun w instr ->
        set_state a.cpu;
        set_state b.cpu;
        let got = Exec.execute a.mem a.cpu instr in
        let want = Exec_oracle.execute b.mem b.cpu instr in
        let fail what =
          Alcotest.failf "seed %d, word 0x%04x (%a): %s differs" seed w
            Thumb.Instr.pp instr what
        in
        if got <> want then fail "step result";
        if a.cpu.regs <> b.cpu.regs then fail "registers";
        if a.cpu.n <> b.cpu.n || a.cpu.z <> b.cpu.z || a.cpu.c <> b.cpu.c
           || a.cpu.v <> b.cpu.v
        then fail "flags";
        let n = Memory.journal_length ja in
        if n <> Memory.journal_length jb then fail "store count";
        for i = 0 to n - 1 do
          let ((addr, _) as entry) = Memory.journal_entry ja i in
          if entry <> Memory.journal_entry jb i
             || Memory.read_u8_exn a.mem addr <> Memory.read_u8_exn b.mem addr
          then fail "memory"
        done;
        Memory.undo_to a.mem ja 0;
        Memory.undo_to b.mem jb 0)
      instrs
  in
  List.iter check_state [ 1; 2; 3; 4 ]

(* --- the recurrence cutoff ------------------------------------------------ *)

(* [State.run_cutoff] against plain [Exec.run] on a copy of the same
   machine: both rigs are sealed over the same image (so their keys are
   comparable), [add_device] is applied to both, and each budget must
   give the same stop, registers, flags and state key. Returns the
   journal lengths ([State.mark]) of the last budget's cutoff and plain
   runs: fewer entries on the cutoff side mean it cut the run short. *)
let cutoff_agrees ?(add_device = fun _ -> ()) name src budgets =
  List.fold_left
    (fun _ budget ->
      let rig () =
        let t = Loader.load_asm src in
        add_device t.Loader.mem;
        State.seal ~mem:t.mem ~cpu:t.cpu
      in
      let cut = rig () and plain = rig () in
      let s_cut = State.run_cutoff ~max_steps:budget cut in
      let s_plain =
        Exec.run ~max_steps:budget (State.mem plain) (State.cpu plain)
      in
      let label what = Printf.sprintf "%s, budget %d: %s" name budget what in
      let a = State.cpu cut and b = State.cpu plain in
      Alcotest.check stop_testable (label "stop") s_plain s_cut;
      Alcotest.(check (array int)) (label "r0-r15") b.regs a.regs;
      Alcotest.(check (list bool)) (label "NZCV") [ b.n; b.z; b.c; b.v ]
        [ a.n; a.z; a.c; a.v ];
      Alcotest.(check string) (label "state key") (State.key plain)
        (State.key cut);
      (State.mark cut, State.mark plain))
    (0, 0) budgets

(* The memory half of the recurrence test, directly: write-backs pass,
   a change fails, and so does a change undone by a later store (the
   test is sufficient for equal RAM, not necessary), and a journal that
   is not attached never passes. *)
let journal_write_backs () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~size:0x10;
  Memory.write_u32_exn m 0x1000 0x11223344;
  let j = Memory.journal_create () in
  Memory.attach_journal m j;
  Memory.write_u8_exn m 0x1004 9;
  let mark = Memory.journal_length j in
  let check what expect =
    Alcotest.(check bool) what expect (Memory.journal_unchanged_since m j mark)
  in
  check "nothing stored" true;
  Memory.write_u32_exn m 0x1000 0x11223344;
  Memory.write_u8_exn m 0x1004 9;
  check "write-backs" true;
  Memory.write_u8_exn m 0x1001 0x34;
  check "one changed byte" false;
  Memory.write_u8_exn m 0x1001 0x33;
  check "changed and restored" false;
  Alcotest.(check bool) "from the latest mark" true
    (Memory.journal_unchanged_since m j (Memory.journal_length j));
  Memory.detach_journal m;
  Alcotest.(check bool) "detached" false
    (Memory.journal_unchanged_since m j (Memory.journal_length j))

(* [b .] recurs after one step: even a budget of 2^40 ends at once. *)
let cutoff_self_loop () =
  let src = "loop:\nb loop" in
  let plain = Loader.load_asm src in
  let rig =
    let t = Loader.load_asm src in
    State.seal ~mem:t.mem ~cpu:t.cpu
  in
  Alcotest.check stop_testable "2^40 steps" Exec.Step_limit
    (State.run_cutoff ~max_steps:(1 lsl 40) rig);
  Alcotest.check stop_testable "plain" Exec.Step_limit
    (Exec.run ~max_steps:1000 plain.mem plain.cpu);
  Alcotest.(check (array int)) "r0-r15" plain.cpu.regs (State.cpu rig).regs;
  ignore (cutoff_agrees "b ." src [ 65; 1000 ])

(* A period of three steps whose registers and flags differ at each
   phase: every budget from 100 to 131 must end in the plain run's
   phase, so the cutoff has to run [remaining mod period] more steps. *)
let cutoff_period_three () =
  ignore
    (cutoff_agrees "period 3" "loop:\nadds r0, #1\nsubs r0, #1\nb loop"
       (List.init 32 (fun i -> 100 + i)))

(* The registers and flags recur at [loop] every iteration, but the
   counter at [sp] does not: memory is part of the state, so neither the
   endless variant nor the one that exits at 200 may be cut. *)
let cutoff_memory_counter () =
  let body =
    "loop:\nldr r2, [sp, #0]\nadds r2, #1\nstr r2, [sp, #0]\n"
  in
  ignore
    (cutoff_agrees "endless counter" (body ^ "movs r2, #0\nb loop")
       [ 200; 1000; 1001 ]);
  ignore
    (cutoff_agrees "counter exits at 200"
       (body ^ "cmp r2, #200\nbeq done\nmovs r2, #0\nb loop\ndone:\nbkpt #1")
       [ 1000; 5000 ])

(* The guard loop's shape: stores that write back the byte they found
   leave the state as it was, so the spin is cut (its journal stays
   short), and its end state is still the plain run's. *)
let cutoff_write_back () =
  let src =
    "movs r3, #0\nstr r3, [sp, #4]\nloop:\nldr r2, [sp, #4]\nstr r2, [sp, #4]\n\
     str r2, [sp, #0]\ncmp r2, #0\nbeq loop\nbkpt #0"
  in
  let cut, plain = cutoff_agrees "write-back" src [ 1000; 4099; 4100 ] in
  Alcotest.(check bool)
    (Printf.sprintf "journal %d entries, plain %d" cut plain)
    true (2 * cut < plain)

(* A device holds state no journal sees: a loop whose only effect is a
   device store recurs in registers and RAM, and must still run its
   whole budget. *)
let cutoff_skips_devices () =
  let stores = ref 0 in
  let add_device mem =
    Memory.add_device mem ~addr:0x40000000 ~size:4
      ~read:(fun _ -> 0)
      ~write:(fun _ _ -> incr stores)
  in
  let src = "movs r4, #1\nlsls r4, r4, #30\nloop:\nstrb r0, [r4, #0]\nb loop" in
  ignore (cutoff_agrees ~add_device "device" src [ 1000 ]);
  (* the plain and the cutoff run each store once per two-step
     iteration after the two set-up steps *)
  Alcotest.(check int) "device stores" (2 * 499) !stores

let () =
  let props =
    List.map Qseed.to_alcotest
      [ prop_adds_flags; prop_cmp_eq_iff_equal; prop_step_total;
        prop_branch_target ]
  in
  Alcotest.run "machine"
    [ ("memory",
       [ Alcotest.test_case "mapping and faults" `Quick memory_mapping;
         Alcotest.test_case "overlap rejected" `Quick memory_overlap_rejected;
         Alcotest.test_case "device region" `Quick memory_device;
         Alcotest.test_case "little endian" `Quick memory_little_endian;
         Alcotest.test_case "exn accessors" `Quick memory_exn_api;
         Alcotest.test_case "region straddling" `Quick memory_straddles_regions;
         Alcotest.test_case "cache tracks regions" `Quick memory_cache_tracks_regions;
         Alcotest.test_case "fetch cache tracks regions" `Quick
           memory_fetch_cache_tracks_regions;
         Alcotest.test_case "fault addresses and refill" `Quick memory_fault_addresses;
         Alcotest.test_case "load_bytes blit" `Quick memory_load_bytes_blit;
         Alcotest.test_case "restore walks regions" `Quick memory_restore_regions ]);
      ("flags",
       [ Alcotest.test_case "add/sub carry-borrow" `Quick flags_add_sub;
         Alcotest.test_case "signed overflow" `Quick flags_overflow;
         Alcotest.test_case "logical ops" `Quick flags_logical;
         Alcotest.test_case "shift carry out" `Quick shift_carry ]);
      ("control-flow",
       [ Alcotest.test_case "conditional branches" `Quick cond_branches;
         Alcotest.test_case "bl/bx call and return" `Quick bl_and_bx ]);
      ("memory-instructions",
       [ Alcotest.test_case "load/store roundtrip" `Quick load_store_roundtrip;
         Alcotest.test_case "push/pop" `Quick push_pop_stack;
         Alcotest.test_case "sign extension" `Quick sign_extension;
         Alcotest.test_case "stmia/ldmia" `Quick stmia_ldmia_roundtrip;
         Alcotest.test_case "pc-relative literal" `Quick ldr_pc_aligns ]);
      ("alu-extended",
       [ Alcotest.test_case "adc carry chain" `Quick carry_chain_adc;
         Alcotest.test_case "sbc borrow" `Quick sbc_borrow;
         Alcotest.test_case "ror/bic" `Quick rotate_and_bic;
         Alcotest.test_case "mul/cmn" `Quick mul_and_cmn;
         Alcotest.test_case "add pc indirection" `Quick hi_add_pc_branches ]);
      ("outcomes",
       [ Alcotest.test_case "bad read" `Quick bad_read_reported;
         Alcotest.test_case "bad fetch" `Quick bad_fetch_reported;
         Alcotest.test_case "invalid instruction" `Quick invalid_instruction_reported;
         Alcotest.test_case "step limit" `Quick step_limit_reported;
         Alcotest.test_case "paper loop spins" `Quick paper_while_not_a_loops_forever;
         Alcotest.test_case "glitched beq exits" `Quick glitched_beq_exits_loop;
         Alcotest.test_case "zero rule" `Quick zero_rule ]);
      ( "cutoff",
        [ Alcotest.test_case "journal write-backs" `Quick journal_write_backs;
          Alcotest.test_case "b . with a 2^40 budget" `Quick cutoff_self_loop;
          Alcotest.test_case "period 3 at every phase" `Quick cutoff_period_three;
          Alcotest.test_case "memory counter is not cut" `Quick
            cutoff_memory_counter;
          Alcotest.test_case "write-back loop is cut" `Quick cutoff_write_back;
          Alcotest.test_case "device rig runs plain" `Quick cutoff_skips_devices ]
      );
      ( "oracle",
        [ Alcotest.test_case "exec agrees with the oracle on every halfword"
            `Quick exec_matches_oracle ] );
      ("properties", props) ]
