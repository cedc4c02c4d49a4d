(* Quickstart: assemble a tiny guarded program, run it clean, then
   glitch it — the whole toolchain in thirty lines.

     dune exec examples/quickstart.exe *)

let guard =
  {|
    movs r0, #0          ; "signature valid" flag: 0 = invalid
  check:
    cmp  r0, #0
    beq  check           ; refuse to boot while the flag is 0
    movs r1, #0xAA       ; unreachable without a glitch
    bkpt #0
  |}

let () =
  (* 1. Assemble and inspect. *)
  let instrs = Thumb.Asm.assemble guard in
  Fmt.pr "Program (%d instructions):@." (List.length instrs);
  List.iteri
    (fun i ins ->
      Fmt.pr "  %2d: %04x  %a@." i (Thumb.Encode.instr ins) Thumb.Instr.pp ins)
    instrs;

  (* 2. Run it unmodified: the guard loops forever. *)
  let t = Machine.Loader.load_instrs instrs in
  (match Machine.Exec.run ~max_steps:1000 t.mem t.cpu with
  | Machine.Exec.Step_limit -> Fmt.pr "@.Clean run: stuck in the guard loop (good).@."
  | stop -> Fmt.pr "@.Clean run: unexpected stop %a@." Machine.Exec.pp_stop stop);

  (* 3. "Glitch" the conditional branch: clear all its bits, which turns
        BEQ into MOVS r0, r0 — the paper's headline corruption. *)
  let t = Machine.Loader.load_instrs instrs in
  Machine.Loader.patch_word t ~index:2 0x0000;
  (match Machine.Exec.run ~max_steps:1000 t.mem t.cpu with
  | Machine.Exec.Breakpoint 0 ->
    Fmt.pr "Glitched run: escaped! r1 = 0x%X@."
      (Machine.Exec.get t.cpu Thumb.Reg.r1)
  | stop -> Fmt.pr "Glitched run: %a@." Machine.Exec.pp_stop stop);

  (* 4. How likely is that corruption? Ask the Figure 2 campaign. *)
  let case = Glitch_emu.Testcase.conditional_branch Thumb.Instr.EQ in
  let result =
    Glitch_emu.Campaign.run_case
      (Glitch_emu.Campaign.default_config Glitch_emu.Fault_model.And)
      case
  in
  Fmt.pr
    "@.Exhaustive AND-model campaign on BEQ: %.1f%% of all 65,536 bit-clear@."
    (Glitch_emu.Campaign.category_percent result Glitch_emu.Campaign.Success);
  Fmt.pr "masks skip the branch. Glitching is not exotic - defend your guards.@."
