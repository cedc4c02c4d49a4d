(* Tests for the RV32I substrate: known encodings from the unprivileged
   spec, codec round-trips, executor semantics, and the cross-ISA
   glitch campaign. *)

open Riscv

let check_word = Alcotest.(check int)

(* --- known encodings ----------------------------------------------------- *)

let known_encodings () =
  let cases =
    [ (Instr.nop, 0x00000013) (* addi x0, x0, 0 *);
      (Instr.Op_imm (ADDI, 5, 0, 173), 0x0AD00293);
      (Instr.Lui (1, 0xDEAD000 lsl 4), 0xDEAD00B7);
      (Instr.Jal (1, 8), 0x008000EF);
      (Instr.Jalr (0, 1, 0), 0x00008067) (* ret *);
      (Instr.Branch (BEQ, 10, 11, 8), 0x00B50463);
      (Instr.Branch (BNE, 10, 11, -4), 0xFEB51EE3);
      (Instr.Load (LW, 6, 2, 16), 0x01012303);
      (Instr.Store (SW, 2, 6, 16), 0x00612823);
      (Instr.Op (ADD, 3, 1, 2), 0x002081B3);
      (Instr.Op (SUB, 3, 1, 2), 0x402081B3);
      (Instr.Op_imm (SRAI, 4, 4, 3), 0x40325213);
      (Instr.Ebreak, 0x00100073);
      (Instr.Ecall, 0x00000073) ]
  in
  List.iter
    (fun (i, expected) ->
      check_word (Instr.to_string i) expected (Codec.encode i);
      Alcotest.(check string)
        (Printf.sprintf "decode 0x%08x" expected)
        (Instr.to_string i)
        (Instr.to_string (Codec.decode expected)))
    cases

let zero_and_ones_are_illegal () =
  (* the spec reserves both patterns as illegal — the built-in version
     of the paper's proposed ISA hardening *)
  (match Codec.decode 0 with
  | Instr.Undefined 0 -> ()
  | i -> Alcotest.fail ("0x00000000 decoded to " ^ Instr.to_string i));
  match Codec.decode 0xFFFFFFFF with
  | Instr.Undefined _ -> ()
  | i -> Alcotest.fail ("0xFFFFFFFF decoded to " ^ Instr.to_string i)

(* decode is total and re-encoding a defined decoding is the identity *)
let prop_word_identity =
  QCheck.Test.make ~name:"encode (decode w) = w on defined words" ~count:20000
    (QCheck.make
       QCheck.Gen.(map (fun x -> x land 0xFFFFFFFF) (int_bound max_int)))
    (fun w ->
      match Codec.decode w with
      | Instr.Undefined w' -> w' = w
      | i -> Codec.encode i = w)

let gen_instr : Instr.t QCheck.Gen.t =
  let open QCheck.Gen in
  let reg = int_range 0 31 in
  let imm12 = int_range (-2048) 2047 in
  oneof
    [ (let* rd = reg and* rs1 = reg and* imm = imm12 in
       let* op =
         oneofl Instr.[ ADDI; SLTI; SLTIU; XORI; ORI; ANDI ]
       in
       return (Instr.Op_imm (op, rd, rs1, imm)));
      (let* rd = reg and* rs1 = reg and* sh = int_range 0 31 in
       let* op = oneofl Instr.[ SLLI; SRLI; SRAI ] in
       return (Instr.Op_imm (op, rd, rs1, sh)));
      (let* rd = reg and* rs1 = reg and* rs2 = reg in
       let* op =
         oneofl Instr.[ ADD; SUB; SLL; SLT; SLTU; XOR; SRL; SRA; OR; AND ]
       in
       return (Instr.Op (op, rd, rs1, rs2)));
      (let* cond = oneofl Instr.branch_conds and* rs1 = reg and* rs2 = reg
       and* off = int_range (-2048) 2047 in
       return (Instr.Branch (cond, rs1, rs2, off * 2)));
      (let* rd = reg and* imm = int_range 0 0xFFFFF in
       oneofl [ Instr.Lui (rd, imm lsl 12); Instr.Auipc (rd, imm lsl 12) ]);
      (let* rd = reg and* off = int_range (-1000) 1000 in
       return (Instr.Jal (rd, off * 2)));
      (let* rd = reg and* rs1 = reg and* imm = imm12 in
       return (Instr.Jalr (rd, rs1, imm)));
      (let* w = oneofl Instr.[ LB; LH; LW; LBU; LHU ] and* rd = reg
       and* rs1 = reg and* imm = imm12 in
       return (Instr.Load (w, rd, rs1, imm)));
      (let* w = oneofl Instr.[ SB; SH; SW ] and* rs1 = reg and* rs2 = reg
       and* imm = imm12 in
       return (Instr.Store (w, rs1, rs2, imm))) ]

let prop_roundtrip =
  QCheck.Test.make ~name:"decode (encode i) = i" ~count:3000
    (QCheck.make ~print:Instr.to_string gen_instr)
    (fun i -> Codec.decode (Codec.encode i) = i)

(* --- executor --------------------------------------------------------------- *)

let run_program ?(sp = 0x200003F0) instrs =
  let mem = Machine.Memory.create () in
  Machine.Memory.map mem ~addr:0x08000000 ~size:0x1000;
  Machine.Memory.map mem ~addr:0x20000000 ~size:0x400;
  List.iteri
    (fun i instr ->
      match
        Machine.Memory.write_u32 mem (0x08000000 + (4 * i)) (Codec.encode instr)
      with
      | Ok () -> ()
      | Error _ -> assert false)
    instrs;
  let cpu = Exec.create_cpu ~sp ~pc:0x08000000 () in
  let stop = Exec.run ~max_steps:1000 mem cpu in
  (stop, cpu)

let exec_arithmetic () =
  let stop, cpu =
    run_program
      [ Instr.Op_imm (ADDI, 1, 0, 40);
        Instr.Op_imm (ADDI, 2, 0, 2);
        Instr.Op (ADD, 3, 1, 2);
        Instr.Op (SUB, 4, 1, 2);
        Instr.Op (SLT, 5, 2, 1);
        Instr.Op_imm (SLTIU, 6, 0, -1) (* 0 < 0xFFFFFFFF unsigned *);
        Instr.Ebreak ]
  in
  Alcotest.(check bool) "halts" true (stop = Exec.Ebreak_hit);
  Alcotest.(check int) "add" 42 (Exec.get cpu 3);
  Alcotest.(check int) "sub" 38 (Exec.get cpu 4);
  Alcotest.(check int) "slt" 1 (Exec.get cpu 5);
  Alcotest.(check int) "sltiu -1" 1 (Exec.get cpu 6)

let exec_x0_hardwired () =
  let _, cpu =
    run_program [ Instr.Op_imm (ADDI, 0, 0, 99); Instr.Ebreak ]
  in
  Alcotest.(check int) "x0 stays zero" 0 (Exec.get cpu 0)

let exec_memory_and_signs () =
  let stop, cpu =
    run_program
      [ Instr.Op_imm (ADDI, 1, 0, -1);
        Instr.Store (SB, 2, 1, 0) (* store 0xFF byte at sp *);
        Instr.Load (LB, 3, 2, 0) (* sign-extends *);
        Instr.Load (LBU, 4, 2, 0) (* zero-extends *);
        Instr.Ebreak ]
  in
  Alcotest.(check bool) "halts" true (stop = Exec.Ebreak_hit);
  Alcotest.(check int) "lb" 0xFFFFFFFF (Exec.get cpu 3);
  Alcotest.(check int) "lbu" 0xFF (Exec.get cpu 4)

let exec_calls () =
  (* jal/jalr call and return *)
  let stop, cpu =
    run_program
      [ Instr.Op_imm (ADDI, 10, 0, 1);
        Instr.Jal (1, 12) (* call +12 *);
        Instr.Op_imm (ADDI, 10, 10, 100);
        Instr.Ebreak;
        Instr.Op_imm (ADDI, 10, 10, 10) (* callee *);
        Instr.Jalr (0, 1, 0) (* ret *) ]
  in
  Alcotest.(check bool) "halts" true (stop = Exec.Ebreak_hit);
  Alcotest.(check int) "1 + 10 + 100" 111 (Exec.get cpu 10)

let exec_faults () =
  let stop, _ =
    run_program [ Instr.Load (LW, 1, 0, 0); Instr.Ebreak ]
  in
  Alcotest.(check bool) "bad read at 0" true (stop = Exec.Bad_read 0);
  let stop, _ =
    run_program [ Instr.Jalr (0, 0, 0x122); Instr.Ebreak ]
  in
  (match stop with
  | Exec.Bad_fetch _ -> ()
  | s -> Alcotest.fail (Fmt.str "expected bad fetch, got %a" Exec.pp_stop s));
  let stop, _ = run_program [ Instr.Undefined 0 ] in
  Alcotest.(check bool) "illegal" true (stop = Exec.Invalid_instruction 0)

(* --- cross-ISA campaign -------------------------------------------------------- *)

let unglitched_branches_taken () =
  List.iter
    (fun case ->
      let identity = 0xFFFFFFFF in
      match Campaign.run_one Glitch_emu.Fault_model.And case ~mask:identity with
      | Glitch_emu.Campaign.No_effect -> ()
      | cat ->
        Alcotest.fail
          (Printf.sprintf "%s unglitched: %s" case.Campaign.name
             (Glitch_emu.Campaign.category_name cat)))
    Campaign.all_conditional_branches

let campaign_deterministic () =
  let case = Campaign.conditional_branch Instr.BEQ in
  let r1 = Campaign.run_case Glitch_emu.Fault_model.And case in
  let r2 = Campaign.run_case Glitch_emu.Fault_model.And case in
  Alcotest.(check bool) "same totals" true (r1.totals = r2.totals)

let high_weights_enumerated_exhaustively () =
  (* Weights whose whole population fits the 600-mask budget must be
     enumerated, not sampled with replacement: weight 31 has only
     C(32,31) = 32 masks, so sampling would count duplicates as
     independent trials. The per-weight totals must equal the population
     size, and the category counts must match running every mask of
     that weight once. *)
  let case = Campaign.conditional_branch Instr.BEQ in
  let flip = Glitch_emu.Fault_model.And in
  let r = Campaign.run_case flip case in
  List.iter
    (fun (weight, population) ->
      let total, counts = List.nth r.Campaign.by_weight weight in
      Alcotest.(check int)
        (Printf.sprintf "weight %d enumerated" weight)
        population total;
      let expected = Array.make (Array.length counts) 0 in
      Glitch_emu.Bitmask.iter_of_weight ~width:32 ~weight (fun bits ->
          let mask = Glitch_emu.Fault_model.mask_of_bits flip ~width:32 bits in
          let cat = Campaign.run_one flip case ~mask in
          let i = Glitch_emu.Campaign.category_index cat in
          expected.(i) <- expected.(i) + 1);
      Alcotest.(check (array int))
        (Printf.sprintf "weight %d counts" weight)
        expected counts)
    [ (30, 496); (31, 32); (32, 1) ];
  (* a mid-range weight still samples exactly the 600-mask budget *)
  let total, _ = List.nth r.Campaign.by_weight 16 in
  Alcotest.(check int) "weight 16 sampled" 600 total

let and_weights_count_cleared_bits () =
  (* Under AND, weight k holds the masks that clear k bits: weight 0 is
     the unmodified word, left out of the totals, and weight 1 the 32
     single-bit clears. *)
  let case = Campaign.conditional_branch Instr.BEQ in
  let r = Campaign.run_case Glitch_emu.Fault_model.And case in
  let ncat = List.length Glitch_emu.Campaign.categories in
  let tally masks =
    let counts = Array.make ncat 0 in
    List.iter
      (fun mask ->
        let i =
          Glitch_emu.Campaign.category_index
            (Campaign.run_one Glitch_emu.Fault_model.And case ~mask)
        in
        counts.(i) <- counts.(i) + 1)
      masks;
    (List.length masks, counts)
  in
  let check_weight weight masks =
    let expected_total, expected = tally masks in
    let total, counts = List.nth r.Campaign.by_weight weight in
    Alcotest.(check int)
      (Printf.sprintf "weight %d runs" weight)
      expected_total total;
    Alcotest.(check (array int))
      (Printf.sprintf "weight %d counts" weight)
      expected counts
  in
  check_weight 0 [ 0xFFFFFFFF ];
  check_weight 1 (List.init 32 (fun b -> 0xFFFFFFFF lxor (1 lsl b)));
  let _, identity = List.nth r.Campaign.by_weight 0 in
  Alcotest.(check int) "identity is No Effect" 1
    identity.(Glitch_emu.Campaign.category_index Glitch_emu.Campaign.No_effect);
  let column i =
    List.fold_left (fun n (_, counts) -> n + counts.(i)) 0 r.Campaign.by_weight
  in
  Alcotest.(check (array int)) "totals leave weight 0 out"
    (Array.init ncat (fun i -> column i - identity.(i)))
    r.Campaign.totals

let riscv_encoding_more_fault_tolerant () =
  (* The headline cross-ISA result: under the same 1->0 fault model,
     RV32I branches are skipped an order of magnitude less often than
     Thumb branches, with most corruptions decoding as illegal. *)
  let thumb_rate =
    let case = Glitch_emu.Testcase.conditional_branch Thumb.Instr.EQ in
    let r =
      Glitch_emu.Campaign.run_case
        (Glitch_emu.Campaign.default_config Glitch_emu.Fault_model.And)
        case
    in
    Glitch_emu.Campaign.category_percent r Glitch_emu.Campaign.Success
  in
  let case = Campaign.conditional_branch Instr.BEQ in
  let r = Campaign.run_case Glitch_emu.Fault_model.And case in
  let riscv_rate = Campaign.success_percent r in
  let invalid_rate =
    Campaign.category_percent r Glitch_emu.Campaign.Invalid_instruction
  in
  Alcotest.(check bool)
    (Printf.sprintf "thumb %.1f%% >> riscv %.1f%%" thumb_rate riscv_rate)
    true
    (thumb_rate > 3. *. riscv_rate);
  Alcotest.(check bool)
    (Printf.sprintf "invalid dominates (%.1f%%)" invalid_rate)
    true (invalid_rate > 50.)

let () =
  let props =
    List.map Qseed.to_alcotest [ prop_word_identity; prop_roundtrip ]
  in
  Alcotest.run "riscv"
    [ ("codec",
       Alcotest.test_case "known encodings" `Quick known_encodings
       :: Alcotest.test_case "0x0 illegal" `Quick zero_and_ones_are_illegal
       :: props);
      ("exec",
       [ Alcotest.test_case "arithmetic" `Quick exec_arithmetic;
         Alcotest.test_case "x0 hardwired" `Quick exec_x0_hardwired;
         Alcotest.test_case "memory and signs" `Quick exec_memory_and_signs;
         Alcotest.test_case "jal/jalr" `Quick exec_calls;
         Alcotest.test_case "faults" `Quick exec_faults ]);
      ("campaign",
       [ Alcotest.test_case "unglitched taken" `Quick unglitched_branches_taken;
         Alcotest.test_case "deterministic" `Slow campaign_deterministic;
         Alcotest.test_case "high weights exhaustive" `Slow
           high_weights_enumerated_exhaustively;
         Alcotest.test_case "AND weights count cleared bits" `Quick
           and_weights_count_cleared_bits;
         Alcotest.test_case "cross-ISA headline" `Slow
           riscv_encoding_more_fault_tolerant ]) ]
