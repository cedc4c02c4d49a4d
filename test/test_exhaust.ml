(* The trace-wide exhaustive injector, tested three ways:

   - unit tests for the canonical state keys (exact serializations:
     stable across write/undo cycles, sensitive to every register, flag
     and dirty byte) and for the shared key map (bucket collisions must
     never merge distinct keys);
   - a QCheck property pinning the pruned campaign against the unpruned
     reference oracle on generated firmware — identical verdict tables,
     identical per-point verdicts;
   - a differential test reproducing the Glitch_emu.Campaign fig2 sweep
     tables bit-for-bit from a one-cycle persistent-mode exhaustive run,
     sequentially and with a 4-domain pool. *)

let popcount x =
  let rec go n x = if x = 0 then n else go (n + 1) (x land (x - 1)) in
  go 0 x

(* --- State: canonical whole-machine keys --------------------------------- *)

let sram = 0x20000000

let seal_rig () =
  let mem = Machine.Memory.create () in
  Machine.Memory.map mem ~addr:sram ~size:0x100;
  let cpu = Machine.Cpu.create ~sp:(sram + 0xF0) ~pc:sram () in
  Exhaust.State.seal ~mem ~cpu

let test_state_key_stable_across_undo () =
  let rig = seal_rig () in
  let mem = Exhaust.State.mem rig in
  let k0 = Exhaust.State.key rig in
  for round = 1 to 3 do
    let m = Exhaust.State.mark rig in
    Machine.Memory.write_u8_exn mem (sram + 0x10) (0x40 + round);
    Machine.Memory.write_u32_exn mem (sram + 0x20) 0xDEADBEEF;
    Alcotest.(check bool)
      (Printf.sprintf "round %d: dirty state has a different key" round)
      false
      (String.equal k0 (Exhaust.State.key rig));
    Exhaust.State.undo_to rig m;
    Alcotest.(check string)
      (Printf.sprintf "round %d: key restored after undo" round)
      k0 (Exhaust.State.key rig)
  done

let test_state_key_ignores_same_value_write () =
  let rig = seal_rig () in
  let mem = Exhaust.State.mem rig in
  let k0 = Exhaust.State.key rig in
  (* writing a byte's pristine value back dirties the journal but not
     the state: the key only encodes bytes that differ from pristine *)
  Machine.Memory.write_u8_exn mem (sram + 8) 0;
  Alcotest.(check string) "pristine-value write leaves the key" k0
    (Exhaust.State.key rig);
  Machine.Memory.write_u8_exn mem (sram + 8) 7;
  let k1 = Exhaust.State.key rig in
  Alcotest.(check bool) "real write changes the key" false
    (String.equal k0 k1);
  Machine.Memory.write_u8_exn mem (sram + 8) 0;
  Alcotest.(check string) "writing the pristine value back reverts the key"
    k0 (Exhaust.State.key rig)

let test_state_key_register_sensitivity () =
  let rig = seal_rig () in
  let cpu = Exhaust.State.cpu rig in
  let k0 = Exhaust.State.key rig in
  for r = 0 to 15 do
    let saved = cpu.Machine.Cpu.regs.(r) in
    cpu.Machine.Cpu.regs.(r) <- saved lxor 0x1000;
    Alcotest.(check bool)
      (Printf.sprintf "r%d is part of the key" r)
      false
      (String.equal k0 (Exhaust.State.key rig));
    cpu.Machine.Cpu.regs.(r) <- saved;
    Alcotest.(check string)
      (Printf.sprintf "r%d restored restores the key" r)
      k0 (Exhaust.State.key rig)
  done

let test_state_key_flag_sensitivity () =
  let rig = seal_rig () in
  let cpu = Exhaust.State.cpu rig in
  let k0 = Exhaust.State.key rig in
  let flags =
    [ ("n", fun v -> cpu.Machine.Cpu.n <- v);
      ("z", fun v -> cpu.Machine.Cpu.z <- v);
      ("c", fun v -> cpu.Machine.Cpu.c <- v);
      ("v", fun v -> cpu.Machine.Cpu.v <- v) ]
  in
  List.iter
    (fun (name, set) ->
      set true;
      Alcotest.(check bool)
        (Printf.sprintf "flag %s is part of the key" name)
        false
        (String.equal k0 (Exhaust.State.key rig));
      set false;
      Alcotest.(check string)
        (Printf.sprintf "flag %s cleared restores the key" name)
        k0 (Exhaust.State.key rig))
    flags

let test_state_key_distinct_dirty_bytes () =
  let rig = seal_rig () in
  let mem = Exhaust.State.mem rig in
  let m = Exhaust.State.mark rig in
  Machine.Memory.write_u8_exn mem (sram + 0x30) 1;
  let ka = Exhaust.State.key rig in
  Exhaust.State.undo_to rig m;
  Machine.Memory.write_u8_exn mem (sram + 0x31) 1;
  let kb = Exhaust.State.key rig in
  Alcotest.(check bool) "same byte at a different address, different key"
    false (String.equal ka kb)

let test_state_save_restore_regs () =
  let rig = seal_rig () in
  let cpu = Exhaust.State.cpu rig in
  let scratch = Array.make 16 0 in
  cpu.Machine.Cpu.regs.(3) <- 0x33;
  cpu.Machine.Cpu.n <- true;
  let k0 = Exhaust.State.key rig in
  let flags = Exhaust.State.save_regs rig scratch in
  cpu.Machine.Cpu.regs.(3) <- 0x44;
  cpu.Machine.Cpu.regs.(11) <- 0x55;
  cpu.Machine.Cpu.n <- false;
  cpu.Machine.Cpu.c <- true;
  Exhaust.State.restore_regs rig scratch flags;
  Alcotest.(check string) "save/restore round-trips the key" k0
    (Exhaust.State.key rig)

(* --- Keymap: collisions must never merge --------------------------------- *)

let test_keymap_collisions_kept_apart () =
  (* one bucket: every key collides with every other by construction *)
  let m = Runtime.Keymap.create ~slots:1 () in
  Runtime.Keymap.add m "state-a" 3;
  Runtime.Keymap.add m "state-b" 5;
  Alcotest.(check (option int)) "first colliding key" (Some 3)
    (Runtime.Keymap.find m "state-a");
  Alcotest.(check (option int)) "second colliding key" (Some 5)
    (Runtime.Keymap.find m "state-b");
  Alcotest.(check (option int)) "absent key is a miss" None
    (Runtime.Keymap.find m "state-c");
  Alcotest.(check int) "both distinct keys counted" 2 (Runtime.Keymap.count m);
  (* re-publishing is a no-op, not a second entry *)
  Runtime.Keymap.add m "state-a" 3;
  Alcotest.(check int) "duplicate insert not counted" 2
    (Runtime.Keymap.count m);
  Alcotest.check_raises "negative verdicts rejected"
    (Invalid_argument "Keymap.add: negative value") (fun () ->
      Runtime.Keymap.add m "state-d" (-1))

(* --- Memory write journal ------------------------------------------------- *)

let test_memory_journal_rewind () =
  let mem = Machine.Memory.create () in
  Machine.Memory.map mem ~addr:sram ~size:0x40;
  Machine.Memory.write_u8_exn mem sram 0xAB;
  let j = Machine.Memory.journal_create () in
  Machine.Memory.attach_journal mem j;
  let mark = Machine.Memory.journal_length j in
  Machine.Memory.write_u8_exn mem sram 0x11;
  Machine.Memory.write_u32_exn mem (sram + 4) 0x01020304;
  Machine.Memory.write_u8_exn mem sram 0x22;
  Alcotest.(check int) "each byte store journaled" 6
    (Machine.Memory.journal_length j);
  let addr, old = Machine.Memory.journal_entry j mark in
  Alcotest.(check int) "entry records the address" sram addr;
  Alcotest.(check int) "entry records the pre-image" 0xAB old;
  Machine.Memory.undo_to mem j mark;
  Alcotest.(check int) "twice-written byte restored" 0xAB
    (Machine.Memory.read_u8_exn mem sram);
  Alcotest.(check int) "word store restored" 0
    (Machine.Memory.read_u32_exn mem (sram + 4));
  Alcotest.(check int) "journal truncated to the mark" mark
    (Machine.Memory.journal_length j);
  Machine.Memory.detach_journal mem;
  Machine.Memory.write_u8_exn mem sram 0x33;
  Alcotest.(check int) "detached writes are not journaled" mark
    (Machine.Memory.journal_length j)

(* --- property: pruned campaign == unpruned oracle ------------------------- *)

(* On generated firmware, the campaign with state-hash pruning must
   produce the same per-function tables, totals, counters and per-point
   verdicts as the reference oracle that executes every continuation.
   Weight-1 flips over a short window keep the oracle affordable. *)
let prop_pruned_equals_oracle =
  QCheck.Test.make ~name:"pruned campaign == unpruned oracle" ~count:8
    Gen.Ast_gen.arb_any (fun case ->
      match
        Resistor.Driver.compile Resistor.Config.none
          (Gen.Ast_gen.source_of_case case)
      with
      | exception _ -> QCheck.assume_fail ()
      | compiled ->
        let spec =
          Exhaust.Campaign.spec_of_image compiled.Resistor.Driver.image
        in
        let config =
          { (Exhaust.Campaign.default_config ()) with
            Exhaust.Campaign.weights = [ 1 ];
            max_trace = 96;
            keep_points = true }
        in
        let pruned = Exhaust.Campaign.run spec config in
        let oracle =
          Exhaust.Campaign.run spec
            { config with Exhaust.Campaign.prune = false }
        in
        pruned.Exhaust.Campaign.points = oracle.Exhaust.Campaign.points
        && pruned.faulted = oracle.faulted
        && pruned.pruned + pruned.executed = oracle.pruned + oracle.executed
        && pruned.totals = oracle.totals
        && pruned.rows = oracle.rows
        && pruned.verdicts = oracle.verdicts)

(* --- differential: exhaust reproduces the fig2 sweep tables --------------- *)

(* Glitch_emu.Campaign's classification, restated as an exhaust
   classifier (the campaign's own [classify] is internal). It reads
   only the final CPU state and the stop — pure, as sharing requires. *)
let fig2_classify cpu (stop : Machine.Exec.stop) =
  Glitch_emu.Campaign.category_index
    (match stop with
    | Machine.Exec.Breakpoint _ ->
      if
        Machine.Cpu.get cpu Glitch_emu.Testcase.skip_reg
        = Glitch_emu.Testcase.skip_marker
      then Glitch_emu.Campaign.Success
      else Glitch_emu.Campaign.No_effect
    | Machine.Exec.Bad_read _ | Machine.Exec.Bad_write _ ->
      Glitch_emu.Campaign.Bad_read
    | Machine.Exec.Bad_fetch _ -> Glitch_emu.Campaign.Bad_fetch
    | Machine.Exec.Invalid_instruction _ ->
      Glitch_emu.Campaign.Invalid_instruction
    | Machine.Exec.Swi_trap _ | Machine.Exec.Step_limit ->
      Glitch_emu.Campaign.Failed)

let ncat = List.length Glitch_emu.Campaign.categories

(* Run the exhaustive injector restricted to the one cycle that fetches
   the case's target word, in persistent mode with weights 0..16 (all
   65,536 masks of the model, bijectively), and rebuild the fig2 tally
   from the per-point verdicts. *)
let exhaust_fig2_tables ?pool flip ~zero_is_invalid case =
  let spec = Exhaust.Campaign.spec_of_case case in
  let config =
    { (Exhaust.Campaign.default_config ()) with
      Exhaust.Campaign.models = [ flip ];
      weights = List.init 17 Fun.id;
      mode = Exhaust.Campaign.Persistent;
      zero_is_invalid;
      max_trace = 200;
      classify = Some fig2_classify;
      keep_points = true }
  in
  let steps, _stop = Exhaust.Campaign.baseline spec config in
  let target_pc =
    spec.Exhaust.Campaign.flash_base
    + (2 * case.Glitch_emu.Testcase.target_index)
  in
  let k =
    match
      Array.to_seqi steps |> Seq.find (fun (_, (pc, _)) -> pc = target_pc)
    with
    | Some (k, _) -> k
    | None ->
      Alcotest.failf "%s: baseline never fetches the target word"
        case.Glitch_emu.Testcase.name
  in
  let config =
    { config with
      Exhaust.Campaign.cycles = Some (k, k + 1);
      settle_steps = Some (200 - k - 1) }
  in
  let r = Exhaust.Campaign.run ?pool spec config in
  let verdicts =
    match r.Exhaust.Campaign.verdicts with
    | Some b -> b
    | None -> Alcotest.fail "keep_points produced no verdict array"
  in
  let by_weight = Array.init 17 (fun _ -> Array.make ncat 0) in
  let totals = Array.make ncat 0 in
  Array.iteri
    (fun p (_model, bits, _mask) ->
      let w = popcount bits in
      let c = Bytes.get_uint8 verdicts p in
      by_weight.(w).(c) <- by_weight.(w).(c) + 1;
      if w > 0 then totals.(c) <- totals.(c) + 1)
    (Exhaust.Campaign.enum_points config);
  (by_weight, totals)

let check_fig2_parity ?pool flip ~zero_is_invalid case =
  let ref_result =
    Glitch_emu.Campaign.run_case
      { (Glitch_emu.Campaign.default_config flip) with zero_is_invalid }
      case
  in
  let by_weight, totals =
    exhaust_fig2_tables ?pool flip ~zero_is_invalid case
  in
  let label what =
    Printf.sprintf "%s/%s: %s bit-identical" case.Glitch_emu.Testcase.name
      (Glitch_emu.Fault_model.name flip) what
  in
  Alcotest.(check bool)
    (label "by_weight tables")
    true
    (ref_result.Glitch_emu.Campaign.by_weight = by_weight);
  Alcotest.(check bool) (label "totals") true
    (ref_result.Glitch_emu.Campaign.totals = totals)

let test_fig2_differential () =
  let beq = Glitch_emu.Testcase.conditional_branch Thumb.Instr.EQ in
  let bne = Glitch_emu.Testcase.conditional_branch Thumb.Instr.NE in
  check_fig2_parity Glitch_emu.Fault_model.And ~zero_is_invalid:false beq;
  check_fig2_parity Glitch_emu.Fault_model.Or ~zero_is_invalid:false bne;
  check_fig2_parity Glitch_emu.Fault_model.Xor ~zero_is_invalid:false beq;
  check_fig2_parity Glitch_emu.Fault_model.And ~zero_is_invalid:true beq

let test_fig2_differential_jobs4 () =
  let beq = Glitch_emu.Testcase.conditional_branch Thumb.Instr.EQ in
  Runtime.Pool.with_pool ~jobs:4 (fun pool ->
      check_fig2_parity ~pool Glitch_emu.Fault_model.And ~zero_is_invalid:false
        beq)

(* --- whole-image acceptance: prune floor and jobs parity ------------------ *)

(* The PR's acceptance criterion, pinned in-tree: on the guard-loop
   firmware the injector must share at least half of all continuations,
   and the per-function verdict tables at --jobs 4 must equal the
   sequential ones (only the pruned/executed split may move). *)
let test_guard_loop_prune_floor_and_parity () =
  let compiled =
    Resistor.Driver.compile Resistor.Config.none Resistor.Firmware.guard_loop
  in
  let spec =
    Exhaust.Campaign.spec_of_image ~name:"guard_loop"
      compiled.Resistor.Driver.image
  in
  let config =
    { (Exhaust.Campaign.default_config ()) with
      Exhaust.Campaign.max_trace = 256 }
  in
  let seq = Exhaust.Campaign.run spec config in
  Alcotest.(check bool) "baseline still running (non-terminating guard)" true
    (seq.Exhaust.Campaign.baseline_stop = None);
  Alcotest.(check bool)
    (Printf.sprintf "prune rate %.3f >= 0.5" (Exhaust.Campaign.prune_rate seq))
    true
    (Exhaust.Campaign.prune_rate seq >= 0.5);
  Alcotest.(check int) "counters partition the points"
    seq.Exhaust.Campaign.points
    (seq.faulted + seq.pruned + seq.executed);
  Json_check.roundtrip "exhaust result" (Exhaust.Campaign.to_json seq);
  let par =
    Runtime.Pool.with_pool ~jobs:4 (fun pool ->
        Exhaust.Campaign.run ~pool spec config)
  in
  Alcotest.(check bool) "rows bit-identical at jobs 4" true
    (seq.Exhaust.Campaign.rows = par.Exhaust.Campaign.rows);
  Alcotest.(check bool) "totals bit-identical at jobs 4" true
    (seq.totals = par.totals);
  Alcotest.(check int) "faulted identical at jobs 4" seq.faulted par.faulted;
  Alcotest.(check int) "states identical at jobs 4" seq.states par.states

(* --- agreement: reachability-weighted static column ----------------------- *)

(* The unrestricted static score charges a function for code the
   baseline never fetches; restricting it to traced instructions must
   not lose rank agreement, and on the fully defended guard loop —
   where the unweighted concordance sits at exactly 50% — it must
   strictly improve it. *)
let test_agreement_reachability_weighting () =
  let compiled =
    Resistor.Driver.compile
      (Resistor.Config.all ~sensitive:[ "a" ] ())
      Resistor.Firmware.guard_loop
  in
  let image = compiled.Resistor.Driver.image in
  let spec = Exhaust.Campaign.spec_of_image ~name:"guard_loop" image in
  let config = Exhaust.Campaign.default_config () in
  let result = Exhaust.Campaign.run spec config in
  let baseline, _stop = Exhaust.Campaign.baseline spec config in
  let surface = Analysis.Surface.analyze (Analysis.Cfg.of_image image) in
  let unweighted = Exhaust.Agreement.of_result surface result in
  let weighted = Exhaust.Agreement.of_result ~baseline surface result in
  Alcotest.(check bool) "report is marked weighted" true weighted.weighted;
  Json_check.roundtrip "agreement report" (Exhaust.Agreement.to_json weighted);
  Alcotest.(check bool) "enough functions for ranking to mean something" true
    (List.length weighted.rows >= 4);
  Alcotest.(check (float 1e-9)) "unweighted concordance preserved in both"
    unweighted.Exhaust.Agreement.concordance
    weighted.concordance_unweighted;
  List.iter
    (fun (row : Exhaust.Agreement.row) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: reached insns bounded by points" row.fname)
        true
        (row.reached_insns > 0 || row.points = 0))
    weighted.rows;
  Alcotest.(check bool)
    (Printf.sprintf "weighted concordance %.2f strictly beats 0.5"
       weighted.concordance)
    true
    (weighted.concordance > 0.5);
  Alcotest.(check bool)
    (Printf.sprintf "weighted %.2f >= unweighted %.2f" weighted.concordance
       weighted.concordance_unweighted)
    true
    (weighted.concordance >= weighted.concordance_unweighted)

(* --- persistence round-trip ----------------------------------------------- *)

let test_result_cache_roundtrip () =
  let case = Glitch_emu.Testcase.conditional_branch Thumb.Instr.EQ in
  let spec = Exhaust.Campaign.spec_of_case case in
  let config =
    { (Exhaust.Campaign.default_config ()) with
      Exhaust.Campaign.max_trace = 64 }
  in
  let r = Exhaust.Campaign.run spec config in
  (match Exhaust.Campaign.decode_result spec config
           (Exhaust.Campaign.encode_result r)
   with
  | None -> Alcotest.fail "decode rejected its own encoding"
  | Some d ->
    Alcotest.(check bool) "rows survive the round trip" true
      (d.Exhaust.Campaign.rows = r.Exhaust.Campaign.rows);
    Alcotest.(check bool) "totals survive the round trip" true
      (d.totals = r.totals);
    Alcotest.(check int) "decoded results report executed = 0" 0 d.executed;
    Alcotest.(check int) "decoded pruned absorbs the split"
      (r.pruned + r.executed) d.pruned);
  (* corrupted payloads are a miss, not a crash *)
  Alcotest.(check bool) "truncated payload rejected" true
    (Exhaust.Campaign.decode_result spec config "exhaust1 garbage" = None);
  let dir = Filename.temp_file "exhaust_cache" "" in
  Sys.remove dir;
  let cache = Cache.open_dir dir in
  let cold, hit_cold = Exhaust.Campaign.run_cached ~cache spec config in
  let warm, hit_warm = Exhaust.Campaign.run_cached ~cache spec config in
  Alcotest.(check bool) "first run is a miss" false hit_cold;
  Alcotest.(check bool) "second run is a hit" true hit_warm;
  Alcotest.(check bool) "warm rows identical" true
    (cold.Exhaust.Campaign.rows = warm.Exhaust.Campaign.rows);
  Alcotest.(check int) "warm run executed nothing" 0 warm.executed

let () =
  Alcotest.run "exhaust"
    [ ( "state",
        [ Alcotest.test_case "key stable across write/undo cycles" `Quick
            test_state_key_stable_across_undo;
          Alcotest.test_case "pristine-value writes do not change the key"
            `Quick test_state_key_ignores_same_value_write;
          Alcotest.test_case "key sensitive to every register" `Quick
            test_state_key_register_sensitivity;
          Alcotest.test_case "key sensitive to every flag" `Quick
            test_state_key_flag_sensitivity;
          Alcotest.test_case "key distinguishes dirty addresses" `Quick
            test_state_key_distinct_dirty_bytes;
          Alcotest.test_case "save/restore registers round-trips" `Quick
            test_state_save_restore_regs ] );
      ( "keymap",
        [ Alcotest.test_case "bucket collisions never merge keys" `Quick
            test_keymap_collisions_kept_apart ] );
      ( "journal",
        [ Alcotest.test_case "write journal rewinds memory" `Quick
            test_memory_journal_rewind ] );
      ( "pruning",
        [ Qseed.to_alcotest prop_pruned_equals_oracle;
          Alcotest.test_case "guard-loop prune floor + jobs-4 parity" `Quick
            test_guard_loop_prune_floor_and_parity ] );
      ( "agreement",
        [ Alcotest.test_case "reachability weighting beats unweighted rank"
            `Quick test_agreement_reachability_weighting ] );
      ( "differential",
        [ Alcotest.test_case "fig2 sweep tables reproduced bit-for-bit" `Quick
            test_fig2_differential;
          Alcotest.test_case "fig2 parity with a 4-domain pool" `Quick
            test_fig2_differential_jobs4 ] );
      ( "persistence",
        [ Alcotest.test_case "encode/decode and cache round-trip" `Quick
            test_result_cache_roundtrip ] ) ]
