(* The calibration of the one target this repository models, an
   STM32F0-class board under clock glitching (docs/FAULT_MODEL.md
   records which paper observation pins each value). *)

(* Board seed: sweet-spot centres and every per-point draw hash it. *)
let seed = 0x51075ED

(* Each spot's near-deterministic core: a peak >= 1 makes the very
   centre fire every attempt (the Section V-B tuner's prize) within a
   radius of one to a few grid points. *)
let core_amplitude = 1.3
let core_sigma = 0.8

(* The broad marginal tail, in percent units: its height stays well
   below 0.5, so tail successes rarely repeat (Table II's partial >>
   full). *)
let tail_amplitude = 0.42
let tail_sigma = 5.0

(* Sweet spots scattered over the (width, offset) plane. *)
let n_spots = 3

(* Per-bit flip probabilities of word corruption: clock glitches are
   strongly biased toward clearing bits. *)
let p_bit_clear = 0.35
let p_bit_set = 0.04

type effect =
  | No_fault
  | Skip
  | Corrupt_fetch
  | Load_residue of int
  | Load_bitflip
  | Flip_z
  | Pc_corrupt

let pp_effect ppf = function
  | No_fault -> Fmt.string ppf "no-fault"
  | Skip -> Fmt.string ppf "skip"
  | Corrupt_fetch -> Fmt.string ppf "corrupt-fetch"
  | Load_residue v -> Fmt.pf ppf "load-residue 0x%08x" v
  | Load_bitflip -> Fmt.string ppf "load-bitflip"
  | Flip_z -> Fmt.string ppf "flip-z"
  | Pc_corrupt -> Fmt.string ppf "pc-corrupt"

(* Sweet-spot centres are derived from the seed so different boards have
   different-but-stable landscapes, like real silicon. *)
let spots =
  List.init n_spots (fun k ->
      let pick salt =
        float_of_int (Hashrand.to_bits (Hashrand.hash2 ~seed salt k) ~width:7)
        -. 64.
      in
      let clamp v = Float.max (-45.) (Float.min 45. v) in
      (clamp (pick 101), clamp (pick 202)))

(* Each sweet spot is a mixture of a tiny near-deterministic core (what
   the Section V-B tuner hunts for) and a broad shallow tail of
   marginal, poorly-repeatable parameter points. The tail carries most
   of the success mass, which is why a full sweep's successes mostly do
   NOT repeat — the partial >> full gap of Table II. *)
let landscape_direct ~width ~offset =
  let w = float_of_int width and o = float_of_int offset in
  List.fold_left
    (fun acc (cw, co) ->
      let d2 = ((w -. cw) ** 2.) +. ((o -. co) ** 2.) in
      let core =
        core_amplitude *. exp (-.d2 /. (2. *. core_sigma *. core_sigma))
      in
      let tail =
        tail_amplitude *. exp (-.d2 /. (2. *. tail_sigma *. tail_sigma))
      in
      Float.max acc (core +. tail))
    0. spots

(* The glitcher asks for the landscape of every schedule entry of every
   attempt, and a sweep revisits each of the 99 x 99 grid points once
   per target cycle. Each domain keeps its own grid, filled point by
   point on first use (NaN marks a point not yet computed), so nothing
   is built before a sweep needs it. *)
let grid_side = 99

let grid_key : float array Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Array.make (grid_side * grid_side) Float.nan)

let landscape ~width ~offset =
  if width < -49 || width > 49 || offset < -49 || offset > 49 then
    landscape_direct ~width ~offset
  else
    let grid = Domain.DLS.get grid_key in
    let i = ((width + 49) * grid_side) + offset + 49 in
    let e = grid.(i) in
    if Float.is_nan e then begin
      let e = landscape_direct ~width ~offset in
      grid.(i) <- e;
      e
    end
    else e

(* RQ4: loads are easy, compares and branches follow, register-only ALU
   work is nearly immune. *)
let class_factor (i : Thumb.Instr.t) =
  if Thumb.Instr.is_load i then 1.0
  else if Thumb.Instr.is_store i then 0.6
  else
    match i with
    | Imm (CMPi, _, _) | Alu (CMPr, _, _) | Hi_cmp _ | Alu (TST, _, _)
    | Alu (CMN, _, _) -> 0.8
    | B_cond _ | B _ | Bx _ | Bl_hi _ | Bl_lo _ -> 0.85
    | Imm (MOVi, _, _) | Hi_mov _ | Load_addr _ -> 0.45
    | Shift _ | Add_sub _ | Imm ((ADDi | SUBi), _, _) | Alu _ | Hi_add _
    | Sp_adjust _ -> 0.15
    | Swi _ | Bkpt _ | Undefined _ -> 0.3
    | Ldr_pc _ | Mem_reg _ | Mem_sign _ | Mem_imm _ | Mem_half _ | Mem_sp _
    | Push _ | Pop _ | Stmia _ | Ldmia _ -> 0.6

let biased_flip ~p_clear ~width ~offset ~cycle ~bits word =
  let flipped = ref 0 in
  for bit = 0 to bits - 1 do
    let u = Hashrand.to_u01 (Hashrand.hash5 ~seed 997 bit width offset cycle) in
    if word land (1 lsl bit) <> 0 then begin
      if u < p_clear then flipped := !flipped lor (1 lsl bit)
    end
    else if u < p_bit_set then flipped := !flipped lor (1 lsl bit)
  done;
  word lxor !flipped

let corrupt_word ~width ~offset ~cycle word =
  biased_flip ~p_clear:p_bit_clear ~width ~offset ~cycle ~bits:16 word

(* Data latches hold their value more robustly than the instruction
   path: a register flip is rarer per bit than an encoding flip, which
   is why while(a) resists glitching better than the single-bit Hamming
   distance of its guard would suggest (paper Section V-A). *)
let corrupt_value32 ~width ~offset ~cycle v =
  biased_flip ~p_clear:(p_bit_clear *. 0.4) ~width ~offset ~cycle ~bits:32 v

(* Bus residue candidates for corrupted loads: stack pointer, the GPIO
   data-register address, and mixes thereof — the families of values the
   paper observed in the comparator register post-mortem. *)
let residue ~width ~offset ~cycle ~sp =
  let gpio = Lower.Codegen.gpio_trigger_address in
  let draw salt bits =
    Hashrand.to_bits (Hashrand.hash4 ~seed salt width offset cycle) ~width:bits
  in
  match draw 331 3 with
  | 0 | 1 | 2 -> 0 (* failed load: the bus reads back idle/zero *)
  | 3 -> sp
  | 4 -> gpio
  | 5 -> ((gpio lsl 8) land 0xFFFFFFFF) lor draw 332 8
  | 6 -> sp lxor draw 333 5
  | _ -> draw 334 32

let roll ~sustained ~landscape:e ~width ~offset ~cycle ~nonce ~instr ~sp =
  (* Attempt noise only gates whether the glitch fires; WHAT it does at
     a fixed (width, offset, cycle) point is deterministic, like the
     repeatable electrical disturbance on real silicon. This is what
     lets the paper's tuning search find 10-out-of-10 parameters. *)
  let gate =
    Hashrand.to_u01 (Hashrand.hash5 ~seed 1 width offset cycle nonce)
  in
  (* Hammering every cycle eventually aborts a bus read even at
     parameter points too weak to disturb a single cycle: sustained
     windows see loads fail far more readily. *)
  let factor =
    if sustained && Thumb.Instr.is_load instr then
      Float.min 1.2 (2.5 *. class_factor instr)
    else class_factor instr
  in
  if gate >= e *. factor then No_fault
  else if
    (* A glitch sustained over many cycles destabilises the whole core:
       with every additional disturbed cycle the prefetch address latch
       is at risk, and the run ends in a crash instead of a controlled
       skip. This is why the paper's long-glitch counts FALL with window
       length for most guards (Table III) and why long attacks against
       defended firmware are detected or fatal far more often than they
       succeed (Table VI). *)
    sustained
    && Hashrand.to_u01 (Hashrand.hash5 ~seed 7 cycle width offset cycle) < 0.28
  then Pc_corrupt
  else begin
    let pick = Hashrand.to_u01 (Hashrand.hash4 ~seed 2 width offset cycle) in
    if Thumb.Instr.is_load instr then begin
      (* A glitch sustained over many consecutive cycles starves the
         memory interface: the aborted read returns the idle bus value
         of zero (the paper's hypothesis for the 10x long-glitch
         success-rate jump on while(a), Section V-D). *)
      if sustained then (if pick < 0.2 then Skip else Load_residue 0)
      else if pick < 0.25 then Skip
      else if pick < 0.65 then begin
        let residue_pick =
          Hashrand.to_u01 (Hashrand.hash4 ~seed 3 width offset cycle)
        in
        if residue_pick < 0.5 then
          Load_residue (residue ~width ~offset ~cycle ~sp)
        else Load_bitflip
      end
      else Corrupt_fetch
    end
    else
      match instr with
      | Thumb.Instr.Imm (CMPi, _, _) | Thumb.Instr.Alu (CMPr, _, _)
      | Thumb.Instr.Hi_cmp _ ->
        if pick < 0.4 then Skip
        else if pick < 0.7 then Flip_z
        else Corrupt_fetch
      | Thumb.Instr.B_cond _ -> if pick < 0.55 then Skip else Corrupt_fetch
      | Thumb.Instr.Shift _ | Thumb.Instr.Add_sub _ | Thumb.Instr.Imm _
      | Thumb.Instr.Alu _ | Thumb.Instr.Hi_add _ | Thumb.Instr.Hi_mov _
      | Thumb.Instr.Bx _ | Thumb.Instr.Ldr_pc _ | Thumb.Instr.Mem_reg _
      | Thumb.Instr.Mem_sign _ | Thumb.Instr.Mem_imm _ | Thumb.Instr.Mem_half _
      | Thumb.Instr.Mem_sp _ | Thumb.Instr.Load_addr _ | Thumb.Instr.Sp_adjust _
      | Thumb.Instr.Push _ | Thumb.Instr.Pop _ | Thumb.Instr.Stmia _
      | Thumb.Instr.Ldmia _ | Thumb.Instr.Swi _ | Thumb.Instr.B _
      | Thumb.Instr.Bl_hi _ | Thumb.Instr.Bl_lo _ | Thumb.Instr.Bkpt _
      | Thumb.Instr.Undefined _ ->
        if pick < 0.5 then Skip else Corrupt_fetch
  end
