(* The trace-wide exhaustive injector, tested three ways:

   - unit tests for the canonical state keys (exact serializations:
     stable across write/undo cycles, sensitive to every register, flag
     and dirty byte), a QCheck differential against a from-scratch key
     over random writes, marks and undos, and tests for the shared key
     map (bucket collisions must never merge distinct keys);
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
  Machine.State.seal ~mem ~cpu

let test_state_key_stable_across_undo () =
  let rig = seal_rig () in
  let mem = Machine.State.mem rig in
  let k0 = Machine.State.key rig in
  for round = 1 to 3 do
    let m = Machine.State.mark rig in
    Machine.Memory.write_u8_exn mem (sram + 0x10) (0x40 + round);
    Machine.Memory.write_u32_exn mem (sram + 0x20) 0xDEADBEEF;
    Alcotest.(check bool)
      (Printf.sprintf "round %d: dirty state has a different key" round)
      false
      (String.equal k0 (Machine.State.key rig));
    Machine.State.undo_to rig m;
    Alcotest.(check string)
      (Printf.sprintf "round %d: key restored after undo" round)
      k0 (Machine.State.key rig)
  done

let test_state_key_ignores_same_value_write () =
  let rig = seal_rig () in
  let mem = Machine.State.mem rig in
  let k0 = Machine.State.key rig in
  (* writing a byte's pristine value back dirties the journal but not
     the state: the key only encodes bytes that differ from pristine *)
  Machine.Memory.write_u8_exn mem (sram + 8) 0;
  Alcotest.(check string) "pristine-value write leaves the key" k0
    (Machine.State.key rig);
  Machine.Memory.write_u8_exn mem (sram + 8) 7;
  let k1 = Machine.State.key rig in
  Alcotest.(check bool) "real write changes the key" false
    (String.equal k0 k1);
  Machine.Memory.write_u8_exn mem (sram + 8) 0;
  Alcotest.(check string) "writing the pristine value back reverts the key"
    k0 (Machine.State.key rig)

let test_state_key_register_sensitivity () =
  let rig = seal_rig () in
  let cpu = Machine.State.cpu rig in
  let k0 = Machine.State.key rig in
  for r = 0 to 15 do
    let saved = cpu.Machine.Cpu.regs.(r) in
    cpu.Machine.Cpu.regs.(r) <- saved lxor 0x1000;
    Alcotest.(check bool)
      (Printf.sprintf "r%d is part of the key" r)
      false
      (String.equal k0 (Machine.State.key rig));
    cpu.Machine.Cpu.regs.(r) <- saved;
    Alcotest.(check string)
      (Printf.sprintf "r%d restored restores the key" r)
      k0 (Machine.State.key rig)
  done

let test_state_key_flag_sensitivity () =
  let rig = seal_rig () in
  let cpu = Machine.State.cpu rig in
  let k0 = Machine.State.key rig in
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
        (String.equal k0 (Machine.State.key rig));
      set false;
      Alcotest.(check string)
        (Printf.sprintf "flag %s cleared restores the key" name)
        k0 (Machine.State.key rig))
    flags

let test_state_key_distinct_dirty_bytes () =
  let rig = seal_rig () in
  let mem = Machine.State.mem rig in
  let m = Machine.State.mark rig in
  Machine.Memory.write_u8_exn mem (sram + 0x30) 1;
  let ka = Machine.State.key rig in
  Machine.State.undo_to rig m;
  Machine.Memory.write_u8_exn mem (sram + 0x31) 1;
  let kb = Machine.State.key rig in
  Alcotest.(check bool) "same byte at a different address, different key"
    false (String.equal ka kb)

let test_state_save_restore_regs () =
  let rig = seal_rig () in
  let cpu = Machine.State.cpu rig in
  let scratch = Array.make 16 0 in
  cpu.Machine.Cpu.regs.(3) <- 0x33;
  cpu.Machine.Cpu.n <- true;
  let k0 = Machine.State.key rig in
  let flags = Machine.State.save_regs rig scratch in
  cpu.Machine.Cpu.regs.(3) <- 0x44;
  cpu.Machine.Cpu.regs.(11) <- 0x55;
  cpu.Machine.Cpu.n <- false;
  cpu.Machine.Cpu.c <- true;
  Machine.State.restore_regs rig scratch flags;
  Alcotest.(check string) "save/restore round-trips the key" k0
    (Machine.State.key rig)

let test_state_live_set_follows_undo () =
  let rig = seal_rig () in
  let mem = Machine.State.mem rig in
  Machine.Memory.write_u8_exn mem (sram + 4) 1;
  Alcotest.(check int) "baseline write is live" 1 (Machine.State.touched_bytes rig);
  let m = Machine.State.mark rig in
  Machine.Memory.write_u16_exn mem (sram + 8) 0x0303;
  Machine.Memory.write_u8_exn mem (sram + 4) 2;
  Alcotest.(check int) "continuation writes are live" 3
    (Machine.State.touched_bytes rig);
  Machine.State.undo_to rig m;
  Alcotest.(check int) "undo drops addresses first written after the mark" 1
    (Machine.State.touched_bytes rig);
  (* the same, for writes no key or count has looked at yet *)
  Machine.Memory.write_u32_exn mem (sram + 12) 0x04040404;
  Machine.State.undo_to rig m;
  Alcotest.(check int) "unabsorbed writes never become live" 1
    (Machine.State.touched_bytes rig)

(* --- property: State.key == a full scan against a seal-time snapshot ------ *)

(* Random u8/u16/u32 writes (some putting a byte's pristine value back),
   register changes, marks and undos to any open mark. At each check,
   and at the end, the rig's key must equal a reference key built from
   scratch: registers and flags, then every mapped RAM byte that
   differs from the snapshot taken at seal, ascending. Checks are
   sparse so that writes and undos pile up between two key builds. Two
   regions, so the walk also crosses the memory's one-region cache. *)
type key_op =
  | W8 of int * int
  | W16 of int * int
  | W32 of int * int
  | Pristine of int
  | Reg of int * int
  | Mark
  | Undo of int
  | Check

let key_regions = [ (sram, 0x20); (0x48000000, 0x8) ]

(* slot [i] of the 40 addressable bytes *)
let slot_addr i = if i < 0x20 then sram + i else 0x48000000 + (i - 0x20)

let pp_key_op = function
  | W8 (i, v) -> Printf.sprintf "w8 %#x %#x" (slot_addr i) v
  | W16 (i, v) -> Printf.sprintf "w16 %#x %#x" (slot_addr i land lnot 1) v
  | W32 (i, v) -> Printf.sprintf "w32 %#x %#x" (slot_addr i land lnot 3) v
  | Pristine i -> Printf.sprintf "pristine %#x" (slot_addr i)
  | Reg (r, v) -> Printf.sprintf "r%d := %#x" r v
  | Mark -> "mark"
  | Undo i -> Printf.sprintf "undo %d" i
  | Check -> "check"

let arb_key_ops =
  let open QCheck.Gen in
  let slot = int_bound 39 and byte = frequency [ (3, int_bound 255); (1, return 0) ] in
  let word = map2 (fun a b -> a lor (b lsl 16)) (int_bound 0xFFFF) (int_bound 0xFFFF) in
  let op =
    frequency
      [ (4, map2 (fun i v -> W8 (i, v)) slot byte);
        (2, map2 (fun i v -> W16 (i, v)) slot (int_bound 0xFFFF));
        (2, map2 (fun i v -> W32 (i, v)) slot word);
        (2, map (fun i -> Pristine i) slot);
        (1, map2 (fun r v -> Reg (r, v)) (int_bound 15) word);
        (2, return Mark);
        (2, map (fun i -> Undo i) (int_bound 7));
        (2, return Check) ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_key_op ops))
    (list_size (int_range 1 60) op)

let reference_key mem pristine (cpu : Machine.Cpu.t) =
  let b = Buffer.create 128 in
  let u32 v = Buffer.add_int32_le b (Int32.of_int v) in
  Array.iter u32 cpu.regs;
  Buffer.add_uint8 b
    ((if cpu.n then 8 else 0) lor (if cpu.z then 4 else 0)
    lor (if cpu.c then 2 else 0) lor if cpu.v then 1 else 0);
  List.iter
    (fun (base, size) ->
      for addr = base to base + size - 1 do
        let cur = Machine.Memory.read_u8_exn mem addr in
        if cur <> Machine.Memory.read_u8_exn pristine addr then begin
          u32 addr;
          Buffer.add_uint8 b cur
        end
      done)
    key_regions;
  Buffer.contents b

let prop_key_equals_full_scan =
  QCheck.Test.make ~name:"State.key == full scan against the seal snapshot"
    ~count:300 arb_key_ops (fun ops ->
      let map () =
        let mem = Machine.Memory.create () in
        List.iter (fun (addr, size) -> Machine.Memory.map mem ~addr ~size) key_regions;
        mem
      in
      let mem = map () in
      List.iter
        (fun (base, size) ->
          for i = 0 to size - 1 do
            Machine.Memory.write_u8_exn mem (base + i) ((base + (37 * i)) land 0xFF)
          done)
        key_regions;
      let cpu = Machine.Cpu.create ~sp:(sram + 0x10) ~pc:sram () in
      let rig = Machine.State.seal ~mem ~cpu in
      let pristine = map () in
      Machine.Memory.restore pristine (Machine.Memory.snapshot mem);
      let marks = ref [] in
      let check () = String.equal (Machine.State.key rig) (reference_key mem pristine cpu) in
      List.for_all
        (fun op ->
          (match op with
          | W8 (i, v) -> Machine.Memory.write_u8_exn mem (slot_addr i) v
          | W16 (i, v) -> Machine.Memory.write_u16_exn mem (slot_addr i land lnot 1) v
          | W32 (i, v) -> Machine.Memory.write_u32_exn mem (slot_addr i land lnot 3) v
          | Pristine i ->
            let a = slot_addr i in
            Machine.Memory.write_u8_exn mem a (Machine.Memory.read_u8_exn pristine a)
          | Reg (r, v) -> cpu.regs.(r) <- v
          | Mark -> marks := Machine.State.mark rig :: !marks
          | Undo i -> (
            match List.filteri (fun j _ -> j >= i mod max 1 (List.length !marks)) !marks with
            | [] -> ()
            | m :: older ->
              Machine.State.undo_to rig m;
              marks := older)
          | Check -> ());
          op <> Check || check ())
        ops
      && check ())

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
  (* probing a buffer prefix hashes and compares just those bytes *)
  let buf = Bytes.of_string "state-b tail" in
  Alcotest.(check int) "buffer prefix finds the string key" 5
    (Runtime.Keymap.find_prefix m buf 7);
  Alcotest.(check int) "a shorter prefix is a miss" (-1)
    (Runtime.Keymap.find_prefix m buf 6);
  Alcotest.(check int) "both distinct keys counted" 2 (Runtime.Keymap.count m);
  (* re-publishing is a no-op, not a second entry *)
  Runtime.Keymap.add m "state-a" 3;
  Alcotest.(check int) "duplicate insert not counted" 2
    (Runtime.Keymap.count m);
  Alcotest.check_raises "negative verdicts rejected"
    (Invalid_argument "Keymap.add: negative value") (fun () ->
      Runtime.Keymap.add m "state-d" (-1));
  (* equal full hashes: the hash folds each 8-byte word's bit 63 into
     its bit 0, so on a little-endian host a key with only bit 0 set
     and one with only bit 63 set hash alike, and only the key compare
     tells them apart *)
  let low = "\001" ^ String.make 7 '\000' in
  let high = String.make 7 '\000' ^ "\128" in
  let hash k = Runtime.Keymap.hash (Bytes.of_string k) 8 in
  Alcotest.(check int) "the pair collides on the full hash" (hash low)
    (hash high);
  Runtime.Keymap.add m low 7;
  Runtime.Keymap.add m high 9;
  Alcotest.(check (option int)) "equal-hash keys kept apart" (Some 7)
    (Runtime.Keymap.find m low);
  Alcotest.(check (option int)) "equal-hash keys kept apart" (Some 9)
    (Runtime.Keymap.find m high)

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

(* --- point enumeration ------------------------------------------------------ *)

(* [enum_points] fills its array in one pass; the verdict array and the
   fig2 differential depend on its order, so it must match the
   list-built enumeration it replaced, point for point. *)
let reference_points config =
  List.concat_map
    (fun model ->
      List.concat_map
        (fun weight ->
          Glitch_emu.Bitmask.of_weight ~width:16 ~weight
          |> List.map (fun bits ->
                 ( model,
                   bits,
                   Glitch_emu.Fault_model.mask_of_bits model ~width:16 bits )))
        config.Exhaust.Campaign.weights)
    config.Exhaust.Campaign.models
  |> Array.of_list

let test_enum_points_order () =
  let models = Glitch_emu.Fault_model.[ [ And ]; [ Or ]; [ Xor ]; [ And; Or; Xor ] ] in
  List.iter
    (fun models ->
      List.iter
        (fun weights ->
          let config =
            { (Exhaust.Campaign.default_config ()) with
              Exhaust.Campaign.models; weights }
          in
          let label =
            Printf.sprintf "%s, %d weight(s)"
              (String.concat "+" (List.map Glitch_emu.Fault_model.name models))
              (List.length weights)
          in
          Alcotest.(check bool) label true
            (Exhaust.Campaign.enum_points config = reference_points config))
        [ [ 1; 2 ]; List.init 17 Fun.id ])
    models

(* --- property: pruned campaign == unpruned oracle ------------------------- *)

let oracle_config ?settle_steps () =
  { (Exhaust.Campaign.default_config ()) with
    Exhaust.Campaign.weights = [ 1 ];
    max_trace = 96;
    settle_steps;
    keep_points = true }

let agrees_with_oracle spec config =
  let pruned = Exhaust.Campaign.run spec config in
  let oracle =
    Exhaust.Campaign.run spec { config with Exhaust.Campaign.prune = false }
  in
  pruned.Exhaust.Campaign.points = oracle.Exhaust.Campaign.points
  && pruned.faulted = oracle.faulted
  && pruned.pruned + pruned.executed = oracle.pruned + oracle.executed
  && pruned.totals = oracle.totals
  && pruned.rows = oracle.rows
  && pruned.verdicts = oracle.verdicts

(* On generated firmware, the campaign with state-hash pruning must
   produce the same per-function tables, totals, counters and per-point
   verdicts as the reference oracle that executes every continuation.
   Weight-1 flips over a short window keep the oracle affordable. The
   pruned side also ends spinning continuations at their first state
   recurrence (State.run_cutoff), while the oracle runs every budget
   out: the auto settle budget (the 96-step window, or the baseline's
   length + 64) and a 512-step one both reach the cutoff's first
   checkpoint after 64 steps. *)
let prop_pruned_equals_oracle ~name ?settle_steps () =
  QCheck.Test.make ~name ~count:8
    Gen.Ast_gen.arb_any (fun case ->
      match
        Resistor.Driver.compile Resistor.Config.none
          (Gen.Ast_gen.source_of_case case)
      with
      | exception _ -> QCheck.assume_fail ()
      | compiled ->
        agrees_with_oracle
          (Exhaust.Campaign.spec_of_image compiled.Resistor.Driver.image)
          (oracle_config ?settle_steps ()))

let spec_of_source name source =
  let compiled = Resistor.Driver.compile Resistor.Config.none source in
  Exhaust.Campaign.spec_of_image ~name compiled.Resistor.Driver.image

(* A loop whose pc recurs every iteration but whose state never does:
   the counter differs each time round, so no cycle may take another's
   verdicts. A fault that corrupts the counter or the bound ends the
   run differently depending on the iteration it hits. *)
let counting_loop =
  {|
volatile unsigned count = 0;

int main(void) {
  unsigned i = 0;
  __trigger_high();
  while (i != 4) { i = i + 1; }
  count = i;
  __halt();
  return 0;
}
|}

(* Cycle sharing on two fixed firmwares: the guard loop's spin revisits
   a few pre-fault states, so most of its cycles take an earlier
   cycle's verdicts; the counting loop revisits none, so every cycle is
   injected. Both must match the oracle point for point. *)
let test_cycle_sharing_matches_oracle () =
  List.iter
    (fun (name, source, shares) ->
      let spec = spec_of_source name source in
      (* long enough for the counting loop to halt *)
      let config = { (oracle_config ()) with Exhaust.Campaign.max_trace = 160 } in
      Alcotest.(check bool) (name ^ ": pruned campaign = oracle") true
        (agrees_with_oracle spec config);
      let window = Array.length (fst (Exhaust.Campaign.baseline spec config)) in
      let distinct = Exhaust.Campaign.distinct_cycles spec config in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d of %d cycles injected" name distinct window)
        shares (distinct < window);
      Alcotest.(check int) (name ^ ": the oracle injects every cycle") window
        (Exhaust.Campaign.distinct_cycles spec
           { config with Exhaust.Campaign.prune = false }))
    [ ("counting_loop", counting_loop, false);
      ("guard_loop", Resistor.Firmware.guard_loop, true) ]

(* The guard loop's whole 2,048-cycle trace at jobs 1: sharing cycles
   by pre-fault state must leave every counter where injecting at each
   cycle put it (a repeated cycle's continuations all book as
   pruned). *)
let test_guard_loop_full_trace_counters () =
  let r =
    Exhaust.Campaign.run
      (spec_of_source "guard_loop" Resistor.Firmware.guard_loop)
      (Exhaust.Campaign.default_config ())
  in
  Alcotest.(check (list int)) "points, faulted, pruned, executed, states"
    [ 835_584; 190_702; 643_332; 1_550; 1_550 ]
    [ r.Exhaust.Campaign.points; r.faulted; r.pruned; r.executed; r.states ]

(* The guard loop at a settle budget of 1,000,000: without the cutoff
   each of its spinning continuations would run the whole budget (about
   20 s in all); with it the run takes well under a second and must
   give the tables a full run gives. *)
let test_guard_loop_long_settle () =
  let spec = spec_of_source "guard_loop" Resistor.Firmware.guard_loop in
  let r =
    Exhaust.Campaign.run spec
      { (Exhaust.Campaign.default_config ()) with
        Exhaust.Campaign.max_trace = 64;
        settle_steps = Some 1_000_000 }
  in
  Alcotest.(check (array int)) "totals"
    [| 12080; 0; 4968; 0; 0; 2939; 3020; 2069; 1036; 0; 0; 0; 0; 0; 0; 0 |]
    r.Exhaust.Campaign.totals;
  Alcotest.(check (list int)) "faulted, executed, states" [ 5763; 1550; 1550 ]
    [ r.faulted; r.executed; r.states ]

(* --- differential: exhaust reproduces the fig2 sweep tables --------------- *)

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
      classify =
        Some (fun cpu stop ->
            Glitch_emu.Campaign.(category_index (classify cpu stop)));
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
  let spec = spec_of_source "guard_loop" Resistor.Firmware.guard_loop in
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

let fresh_cache () =
  let dir = Filename.temp_file "exhaust_cache" "" in
  Sys.remove dir;
  Cache.open_dir dir

let test_result_cache_roundtrip () =
  let case = Glitch_emu.Testcase.conditional_branch Thumb.Instr.EQ in
  let spec = Exhaust.Campaign.spec_of_case case in
  let config =
    { (Exhaust.Campaign.default_config ()) with
      Exhaust.Campaign.max_trace = 64 }
  in
  let r = Exhaust.Campaign.run spec config in
  let good = Exhaust.Campaign.to_json r in
  (match Exhaust.Campaign.of_json good with
  | None -> Alcotest.fail "decode rejected its own encoding"
  | Some d ->
    Alcotest.(check bool) "rows survive the round trip" true
      (d.Exhaust.Campaign.rows = r.Exhaust.Campaign.rows);
    Alcotest.(check bool) "totals survive the round trip" true
      (d.totals = r.totals);
    Alcotest.(check bool) "baseline stop survives the round trip" true
      (d.baseline_stop = r.baseline_stop && r.baseline_stop <> None);
    Alcotest.(check int) "decoded results report executed = 0" 0 d.executed;
    Alcotest.(check int) "decoded pruned absorbs the split"
      (r.pruned + r.executed) d.pruned);
  (* corrupted payloads are a miss, not a crash *)
  let open Json_check in
  let first_row f = edit "rows" (edit_first (edit "counts" (edit_first f))) in
  rejected_as_miss ~of_json:Exhaust.Campaign.of_json
    ~to_json:Exhaust.Campaign.to_json ~run:(fun () -> r) good
    [ ("negative count", first_row (fun _ -> Json.Int (-1)) good);
      ("totals not the sum of rows", first_row bump good);
      ("counter identity broken", edit "faulted" bump good);
      ("short table", edit "totals" (function
          | Json.List (_ :: l) -> Json.List l
          | j -> j) good);
      ("unknown baseline stop", edit "baseline_stop" (fun _ -> Json.String "halted") good);
      ("unknown mode", edit "mode" (fun _ -> Json.String "sideways") good) ];
  let cache = fresh_cache () in
  let cold, hit_cold = Exhaust.Campaign.run_cached ~cache spec config in
  let warm, hit_warm = Exhaust.Campaign.run_cached ~cache spec config in
  Alcotest.(check bool) "first run is a miss" false hit_cold;
  Alcotest.(check bool) "second run is a hit" true hit_warm;
  Alcotest.(check bool) "warm rows identical" true
    (cold.Exhaust.Campaign.rows = warm.Exhaust.Campaign.rows);
  Alcotest.(check int) "warm run executed nothing" 0 warm.executed

(* The key describes the whole spec and every keyed config field: specs
   that differ only in their memory map can get different verdicts (an
   access past 0x400 faults in one and not the other), and so can runs
   with another settle budget, window or fault set, so each variant
   must miss where the original hits. *)
let test_cache_key_covers_spec_and_config () =
  let case = Glitch_emu.Testcase.conditional_branch Thumb.Instr.NE in
  let spec = Exhaust.Campaign.spec_of_case case in
  let config =
    { (Exhaust.Campaign.default_config ()) with
      Exhaust.Campaign.max_trace = 32 }
  in
  let cache = fresh_cache () in
  let hit spec config = snd (Exhaust.Campaign.run_cached ~cache spec config) in
  ignore (hit spec config);
  Alcotest.(check bool) "original hits" true (hit spec config);
  List.iter
    (fun (name, spec', config') ->
      Alcotest.(check bool) (name ^ " misses") false (hit spec' config'))
    [ ( "extra RAM",
        { spec with rams = (0x20000400, 0x400) :: spec.Exhaust.Campaign.rams },
        config );
      ("larger flash", { spec with flash_size = 0x800 }, config);
      ("moved flash", { spec with flash_base = 0x08000400 }, config);
      ("models", spec, { config with models = [ Glitch_emu.Fault_model.And ] });
      ("weights", spec, { config with weights = [ 1 ] });
      ("mode", spec, { config with mode = Persistent });
      ("zero_is_invalid", spec, { config with zero_is_invalid = true });
      ("max_trace", spec, { config with max_trace = 33 });
      ("settle_steps", spec, { config with settle_steps = Some 8 });
      ("cycles", spec, { config with cycles = Some (0, 4) });
      ("prune", spec, { config with prune = false });
      ("static_prune", spec, { config with static_prune = true }) ]

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
            test_state_save_restore_regs;
          Alcotest.test_case "undo shrinks the live set" `Quick
            test_state_live_set_follows_undo;
          Qseed.to_alcotest prop_key_equals_full_scan ] );
      ( "keymap",
        [ Alcotest.test_case "bucket collisions never merge keys" `Quick
            test_keymap_collisions_kept_apart ] );
      ( "journal",
        [ Alcotest.test_case "write journal rewinds memory" `Quick
            test_memory_journal_rewind ] );
      ( "pruning",
        [ Alcotest.test_case "enum_points order = list-built reference" `Quick
            test_enum_points_order;
          Qseed.to_alcotest
            (prop_pruned_equals_oracle ~name:"pruned campaign == unpruned oracle"
               ());
          Qseed.to_alcotest
            (prop_pruned_equals_oracle
               ~name:"pruned campaign == unpruned oracle, settle 512"
               ~settle_steps:512 ());
          Alcotest.test_case "cycle sharing matches the oracle" `Quick
            test_cycle_sharing_matches_oracle;
          Alcotest.test_case "guard loop full-trace counters" `Quick
            test_guard_loop_full_trace_counters;
          Alcotest.test_case "guard loop at settle 1,000,000" `Quick
            test_guard_loop_long_settle;
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
            test_result_cache_roundtrip;
          Alcotest.test_case "cache key covers spec and config" `Quick
            test_cache_key_covers_spec_and_config ] ) ]
