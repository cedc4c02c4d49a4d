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

let reg cpu r = Cpu.get cpu (Thumb.Reg.of_int r)

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

let memory_load_bytes_blit () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~size:8;
  Memory.load_bytes m ~addr:0x1004 (Bytes.of_string "\x0D\xF0\xFE\xCA");
  Alcotest.(check int) "blit contents" 0xCAFEF00D (Memory.read_u32_exn m 0x1004)

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
      Cpu.set t.cpu Thumb.Reg.r0 r0;
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
      Cpu.pc t.cpu = base + 4 + 4 + (2 * off))

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
      && Cpu.get t.cpu Thumb.Reg.r0 = (a + b) land 0xFFFFFFFF
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
         Alcotest.test_case "load_bytes blit" `Quick memory_load_bytes_blit ]);
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
         Alcotest.test_case "glitched beq exits" `Quick glitched_beq_exits_loop ]);
      ("properties", props) ]
