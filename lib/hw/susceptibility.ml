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

(* Every constant a draw compares against becomes its integer threshold
   once, here ({!Hashrand.threshold}); [draw_probabilities] lists them. *)
let constants = ref []

let constant p =
  constants := p :: !constants;
  Hashrand.threshold p

(* The draw [to_u01 h < p], with [t = threshold p]. *)
let[@inline] below h t = h land Hashrand.u01_mask < t

let t_bit_clear = constant p_bit_clear
let t_bit_set = constant p_bit_set

(* Data latches hold their value more robustly than the instruction
   path: a register flip is rarer per bit than an encoding flip, which
   is why while(a) resists glitching better than the single-bit Hamming
   distance of its guard would suggest (paper Section V-A). *)
let t_bit_clear_data = constant (p_bit_clear *. 0.4)

(* The pipeline stage a glitched cycle disturbs: half the time the
   executing instruction, else the one in decode or in fetch. *)
let t_execute_stage = constant 0.5
let t_decode_stage = constant 0.8

(* A corruption planted in decode or fetch skips its victim, else
   corrupts its encoding. *)
let t_plant_skip = constant 0.4

(* [roll]'s effect draws. *)
let t_pc_corrupt = constant 0.28
let t_sustained_load_skip = constant 0.2
let t_load_skip = constant 0.25
let t_load_value = constant 0.65
let t_load_residue = constant 0.5
let t_compare_skip = constant 0.4
let t_compare_flip = constant 0.7
let t_branch_skip = constant 0.55
let t_other_skip = constant 0.5
let draw_probabilities = List.rev !constants

(* The gate's factor by gate class. Classes 0-6 are RQ4's: loads are
   easy, compares and branches follow, register-only ALU work is nearly
   immune. Hammering every cycle eventually aborts a bus read even at
   parameter points too weak to disturb a single cycle, so a load under
   a sustained glitch (class 7) fires more readily. Class 8 is the
   decode and fetch latches: encoding corruption there applies to
   whatever instruction occupies the stage, regardless of its class —
   it is the latch being disturbed, not the ALU. *)
let gate_factor_table = [| 1.0; 0.6; 0.8; 0.85; 0.45; 0.15; 0.3; 1.2; 0.55 |]
let gate_factors = Array.to_list gate_factor_table
let sustained_load_class = 7
let back_stage_class = 8

(* The class of an instruction that is not a load. *)
let unloaded_class (i : Thumb.Instr.t) =
  if Thumb.Instr.is_store i then 1
  else
    match i with
    | Imm (CMPi, _, _) | Alu (CMPr, _, _) | Hi_cmp _ | Alu (TST, _, _)
    | Alu (CMN, _, _) -> 2
    | B_cond _ | B _ | Bx _ | Bl_hi _ | Bl_lo _ -> 3
    | Imm (MOVi, _, _) | Hi_mov _ | Load_addr _ -> 4
    | Shift _ | Add_sub _ | Imm ((ADDi | SUBi), _, _) | Alu _ | Hi_add _
    | Sp_adjust _ -> 5
    | Swi _ | Bkpt _ | Undefined _ -> 6
    | Ldr_pc _ | Mem_reg _ | Mem_sign _ | Mem_imm _ | Mem_half _ | Mem_sp _
    | Push _ | Pop _ | Stmia _ | Ldmia _ -> 1

let gate_class i = if Thumb.Instr.is_load i then 0 else unloaded_class i
let class_factor i = gate_factor_table.(gate_class i)

(* A point's draw context: [threshold (e *. factor)] per gate class,
   for the landscape [e] of one (width, offset), so the per-cycle gate
   is one integer compare; and per salt, the hash state folded over
   (seed, salt, width, offset), so a draw folds only its cycle (and
   nonce). Salt [s]'s state is slot [s] of [prefixes], folded on the
   salt's first draw after [fill_gates] (bit [s] of [filled]): most
   attempts glitch a cycle or two and never draw some salts at all. *)
type gates = {
  thresholds : int array;
  mutable width : int;
  mutable offset : int;
  mutable filled : int;
  prefixes : Bytes.t;
}

(* The salts drawn through a prefix: 1 gate, 2 effect pick, 3 load
   residue, 4 stage, 5 back-stage gate, 6 plant. *)
let prefix_slots = 7

let make_gates () =
  { thresholds = Array.make (Array.length gate_factor_table) 0;
    width = 0;
    offset = 0;
    filled = 0;
    prefixes = Bytes.create (8 * prefix_slots) }

let fill_gates g ~width ~offset =
  Hashrand.thresholds ~scale:(landscape ~width ~offset) gate_factor_table
    g.thresholds;
  g.width <- width;
  g.offset <- offset;
  g.filled <- 0

let gates_width g = g.width
let gates_offset g = g.offset

let[@inline] prefix g salt =
  if g.filled land (1 lsl salt) = 0 then begin
    Hashrand.set_prefix g.prefixes salt ~seed salt g.width g.offset;
    g.filled <- g.filled lor (1 lsl salt)
  end

(* [hash4 ~seed salt width offset cycle] and
   [hash5 ~seed salt width offset cycle nonce] at the point of [g]. *)
let[@inline] draw4 g salt cycle =
  prefix g salt;
  Hashrand.prefixed4 g.prefixes salt cycle

let[@inline] draw5 g salt cycle nonce =
  prefix g salt;
  Hashrand.prefixed5 g.prefixes salt cycle nonce

let biased_flip ~t_clear ~width ~offset ~cycle ~bits word =
  let flipped = ref 0 in
  for bit = 0 to bits - 1 do
    let u = Hashrand.hash5 ~seed 997 bit width offset cycle in
    if word land (1 lsl bit) <> 0 then begin
      if below u t_clear then flipped := !flipped lor (1 lsl bit)
    end
    else if below u t_bit_set then flipped := !flipped lor (1 lsl bit)
  done;
  word lxor !flipped

let corrupt_word ~width ~offset ~cycle word =
  biased_flip ~t_clear:t_bit_clear ~width ~offset ~cycle ~bits:16 word

let corrupt_value32 ~width ~offset ~cycle v =
  biased_flip ~t_clear:t_bit_clear_data ~width ~offset ~cycle ~bits:32 v

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

let stage ~gates ~cycle =
  let u = draw4 gates 4 cycle land Hashrand.u01_mask in
  if u < t_execute_stage then 0 else if u < t_decode_stage then 2 else 4

let back_stage_fires ~gates ~cycle ~nonce =
  below (draw5 gates 5 cycle nonce) gates.thresholds.(back_stage_class)

let plant_skips ~gates ~cycle = below (draw4 gates 6 cycle) t_plant_skip

let roll_gated ~sustained ~gates ~cycle ~nonce ~instr ~sp =
  let width = gates.width and offset = gates.offset in
  (* Attempt noise only gates whether the glitch fires; WHAT it does at
     a fixed (width, offset, cycle) point is deterministic, like the
     repeatable electrical disturbance on real silicon. This is what
     lets the paper's tuning search find 10-out-of-10 parameters. *)
  let load = Thumb.Instr.is_load instr in
  let gate =
    gates.thresholds.(if not load then unloaded_class instr
                      else if sustained then sustained_load_class
                      else 0)
  in
  if not (below (draw5 gates 1 cycle nonce) gate) then No_fault
  else if
    (* A glitch sustained over many cycles destabilises the whole core:
       with every additional disturbed cycle the prefetch address latch
       is at risk, and the run ends in a crash instead of a controlled
       skip. This is why the paper's long-glitch counts FALL with window
       length for most guards (Table III) and why long attacks against
       defended firmware are detected or fatal far more often than they
       succeed (Table VI). *)
    sustained
    && below (Hashrand.hash5 ~seed 7 cycle width offset cycle)
         t_pc_corrupt
  then Pc_corrupt
  else begin
    let pick = draw4 gates 2 cycle land Hashrand.u01_mask in
    if load then begin
      (* A glitch sustained over many consecutive cycles starves the
         memory interface: the aborted read returns the idle bus value
         of zero (the paper's hypothesis for the 10x long-glitch
         success-rate jump on while(a), Section V-D). *)
      if sustained then
        (if pick < t_sustained_load_skip then Skip else Load_residue 0)
      else if pick < t_load_skip then Skip
      else if pick < t_load_value then begin
        if below (draw4 gates 3 cycle) t_load_residue then
          Load_residue (residue ~width ~offset ~cycle ~sp)
        else Load_bitflip
      end
      else Corrupt_fetch
    end
    else
      match instr with
      | Thumb.Instr.Imm (CMPi, _, _) | Thumb.Instr.Alu (CMPr, _, _)
      | Thumb.Instr.Hi_cmp _ ->
        if pick < t_compare_skip then Skip
        else if pick < t_compare_flip then Flip_z
        else Corrupt_fetch
      | Thumb.Instr.B_cond _ ->
        if pick < t_branch_skip then Skip else Corrupt_fetch
      | Thumb.Instr.Shift _ | Thumb.Instr.Add_sub _ | Thumb.Instr.Imm _
      | Thumb.Instr.Alu _ | Thumb.Instr.Hi_add _ | Thumb.Instr.Hi_mov _
      | Thumb.Instr.Bx _ | Thumb.Instr.Ldr_pc _ | Thumb.Instr.Mem_reg _
      | Thumb.Instr.Mem_sign _ | Thumb.Instr.Mem_imm _ | Thumb.Instr.Mem_half _
      | Thumb.Instr.Mem_sp _ | Thumb.Instr.Load_addr _ | Thumb.Instr.Sp_adjust _
      | Thumb.Instr.Push _ | Thumb.Instr.Pop _ | Thumb.Instr.Stmia _
      | Thumb.Instr.Ldmia _ | Thumb.Instr.Swi _ | Thumb.Instr.B _
      | Thumb.Instr.Bl_hi _ | Thumb.Instr.Bl_lo _ | Thumb.Instr.Bkpt _
      | Thumb.Instr.Undefined _ ->
        if pick < t_other_skip then Skip else Corrupt_fetch
  end

let roll ~sustained ~landscape ~width ~offset ~cycle ~nonce ~instr ~sp =
  let gates = make_gates () in
  Hashrand.thresholds ~scale:landscape gate_factor_table gates.thresholds;
  gates.width <- width;
  gates.offset <- offset;
  roll_gated ~sustained ~gates ~cycle ~nonce ~instr ~sp
