(* Masks drawn per weight whose population C(32,k) exceeds it, the
   sampler's seed, and the step budget of one run. *)
let samples_per_weight = 600
let seed = 0x155C_5EED
let max_steps = 200

type testcase = { name : string; instrs : Instr.t list; target_index : int }

let skip_reg = 5
let skip_marker = 0xAD
let normal_marker = 0xAA

(* Register values that make each condition hold, so the branch is
   taken and the skip marker is dead code unglitched. *)
let setup_for (cond : Instr.branch_cond) =
  match cond with
  | BEQ -> (4, 4)
  | BNE -> (1, 0)
  | BLT -> (-1, 0)
  | BGE -> (1, 0)
  | BLTU -> (0, 1)
  | BGEU -> (1, 0)

let conditional_branch cond =
  let a, b = setup_for cond in
  { name = String.uppercase_ascii (Instr.branch_cond_name cond);
    instrs =
      [ Instr.Op_imm (ADDI, 10, 0, a);
        Instr.Op_imm (ADDI, 11, 0, b);
        Instr.Branch (cond, 10, 11, 8);
        Instr.Op_imm (ADDI, skip_reg, 0, skip_marker);
        Instr.Op_imm (ADDI, 6, 0, normal_marker);
        Instr.Ebreak ];
    target_index = 2 }

let all_conditional_branches = List.map conditional_branch Instr.branch_conds

(* --- rig ------------------------------------------------------------------ *)

(* the Thumb sweep's rig geometry *)
let layout = Machine.Loader.snippet_layout

type rig = { mem : Machine.Memory.t; words : int array }

let make_rig case =
  let mem = Machine.Memory.create () in
  Machine.Memory.map mem ~addr:layout.flash_base ~size:layout.flash_size;
  Machine.Memory.map mem ~addr:layout.sram_base ~size:layout.sram_size;
  { mem; words = Array.of_list (Codec.encode_program case.instrs) }

let write_program rig ~target_word case =
  Machine.Memory.clear rig.mem;
  Array.iteri
    (fun i w ->
      let w = if i = case.target_index then target_word else w in
      match Machine.Memory.write_u32 rig.mem (layout.flash_base + (4 * i)) w with
      | Ok () -> ()
      | Error _ -> assert false)
    rig.words

let classify cpu (stop : Exec.stop) : Glitch_emu.Campaign.category =
  match stop with
  | Exec.Ebreak_hit ->
    if Exec.get cpu skip_reg = skip_marker then Glitch_emu.Campaign.Success
    else Glitch_emu.Campaign.No_effect
  | Exec.Bad_read _ | Exec.Bad_write _ -> Glitch_emu.Campaign.Bad_read
  | Exec.Bad_fetch _ -> Glitch_emu.Campaign.Bad_fetch
  | Exec.Invalid_instruction _ -> Glitch_emu.Campaign.Invalid_instruction
  | Exec.Ecall_trap | Exec.Step_limit -> Glitch_emu.Campaign.Failed

let run_mask flip rig case ~mask =
  let word =
    Glitch_emu.Fault_model.apply flip ~mask
      rig.words.(case.target_index)
    land 0xFFFFFFFF
  in
  write_program rig ~target_word:word case;
  let cpu = Exec.create_cpu ~sp:layout.stack_top ~pc:layout.flash_base () in
  let stop = Exec.run ~max_steps rig.mem cpu in
  classify cpu stop

let run_one flip case ~mask = run_mask flip (make_rig case) case ~mask

(* xorshift-based deterministic bit-set sampling for high weights *)
let sample_bits state ~weight =
  let next () =
    let x = !state in
    let x = x lxor (x lsl 13) land 0x3FFFFFFFFFFFFFFF in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) land 0x3FFFFFFFFFFFFFFF in
    state := x;
    x
  in
  (* choose [weight] distinct bit positions *)
  let chosen = Array.make 32 false in
  let placed = ref 0 in
  while !placed < weight do
    let bit = next () land 31 in
    if not chosen.(bit) then begin
      chosen.(bit) <- true;
      incr placed
    end
  done;
  Array.to_seqi chosen
  |> Seq.fold_left (fun acc (i, on) -> if on then acc lor (1 lsl i) else acc) 0

type result = {
  case : testcase;
  flip : Glitch_emu.Fault_model.flip;
  by_weight : (int * int array) list;
  totals : int array;
}

let ncat = List.length Glitch_emu.Campaign.categories

let run_case flip case =
  let rig = make_rig case in
  let totals = Array.make ncat 0 in
  let state = ref (seed lor 1) in
  let by_weight =
    List.init 33 (fun weight ->
        let counts = Array.make ncat 0 in
        (* [weight] counts flipped bits under every model, as in the
           Thumb sweep *)
        let record bits =
          let mask =
            Glitch_emu.Fault_model.mask_of_bits flip ~width:32 bits
          in
          let cat = run_mask flip rig case ~mask in
          let idx = Glitch_emu.Campaign.category_index cat in
          counts.(idx) <- counts.(idx) + 1;
          if weight > 0 then totals.(idx) <- totals.(idx) + 1
        in
        (* Enumerate whenever the whole population fits the sampling
           budget: drawing with replacement from a population smaller
           than the budget (weight 31: C(32,31) = 32 masks for 600
           draws) would count duplicate masks as independent trials. *)
        let exhaustive = Glitch_emu.Bitmask.choose 32 weight in
        if weight <= 2 || exhaustive <= samples_per_weight then
          Glitch_emu.Bitmask.iter_of_weight ~width:32 ~weight record
        else
          for _ = 1 to samples_per_weight do
            record (sample_bits state ~weight)
          done;
        (Array.fold_left ( + ) 0 counts, counts))
  in
  { case; flip; by_weight; totals }

let success_percent r =
  let num = r.totals.(Glitch_emu.Campaign.category_index Glitch_emu.Campaign.Success) in
  let den = Array.fold_left ( + ) 0 r.totals in
  Stats.Rate.pct ~num ~den

let category_percent r cat =
  let num = r.totals.(Glitch_emu.Campaign.category_index cat) in
  let den = Array.fold_left ( + ) 0 r.totals in
  Stats.Rate.pct ~num ~den
