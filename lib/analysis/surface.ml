(* Static counterpart of the Figure-2 taxonomy: enumerate every 1- and
   2-bit perturbation of each fetched word purely through the decoder
   plus an abstract control-flow semantics.  The dynamic campaign runs
   65,536 masks per instruction; here a verdict is a pure function of
   (old word, new word), so the whole image is characterised without
   executing anything. *)

type verdict = Control | Fault | Benign

let verdict_name = function
  | Control -> "control"
  | Fault -> "fault"
  | Benign -> "benign"

(* Does the instruction write the PC (architecturally transfer
   control)?  Bl_hi only poisons LR, but a perturbed return address is
   a control-flow corruption in the same sense, so it counts. *)
let writes_pc (i : Thumb.Instr.t) =
  match i with
  | Thumb.Instr.B _ | Thumb.Instr.B_cond _ | Thumb.Instr.Bx _
  | Thumb.Instr.Bl_lo _ | Thumb.Instr.Bl_hi _ -> true
  | Thumb.Instr.Pop { pc; _ } -> pc
  | Thumb.Instr.Hi_mov (rd, _) | Thumb.Instr.Hi_add (rd, _) ->
    Thumb.Reg.equal rd Thumb.Reg.pc
  | _ -> false

(* Control diversion in the wider sense: PC writes plus traps and
   halts, which also keep straight-line execution from continuing. *)
let diverts (i : Thumb.Instr.t) =
  writes_pc i
  ||
  match i with
  | Thumb.Instr.Swi _ | Thumb.Instr.Bkpt _ | Thumb.Instr.Undefined _ -> true
  | _ -> false

let decode w = Thumb.Decode.table.(w land 0xffff)

let classify ~old_word new_word =
  match decode new_word with
  | Thumb.Instr.Undefined _ -> Fault
  | ni ->
    if diverts (decode old_word) || diverts ni then Control else Benign

type tally = { mutable control : int; mutable fault : int; mutable benign : int }

let tally () = { control = 0; fault = 0; benign = 0 }

let bump t = function
  | Control -> t.control <- t.control + 1
  | Fault -> t.fault <- t.fault + 1
  | Benign -> t.benign <- t.benign + 1

type profile = {
  addr : int;
  word : int;
  control1 : int;
  fault1 : int;
  benign1 : int;
  control2 : int;
  fault2 : int;
  benign2 : int;
  direction_masks : int list;
  escape_masks : int list;
}

let flips1 = 16
let flips2 = 16 * 15 / 2

let profile_word ?(addr = 0) word =
  let word = word land 0xffff in
  let t1 = tally () and t2 = tally () in
  let direction = ref [] and escape = ref [] in
  let old_instr = decode word in
  Glitch_emu.Bitmask.iter_of_weight ~width:16 ~weight:1 (fun mask ->
      let w' = word lxor mask in
      bump t1 (classify ~old_word:word w');
      (match (old_instr, decode w') with
      | Thumb.Instr.B_cond (c, off), Thumb.Instr.B_cond (c', off')
        when off' = off
             && Thumb.Instr.cond_to_int c' = Thumb.Instr.cond_to_int c lxor 1 ->
        (* the complemented condition: same comparison, inverted outcome *)
        direction := mask :: !direction
      | Thumb.Instr.B_cond _, ni when not (diverts ni) ->
        (* the guard degrades to a straight-line instruction: the branch
           is never taken, whatever the flags say *)
        escape := mask :: !escape
      | _ -> ()));
  Glitch_emu.Bitmask.iter_of_weight ~width:16 ~weight:2 (fun mask ->
      bump t2 (classify ~old_word:word (word lxor mask)));
  { addr;
    word;
    control1 = t1.control;
    fault1 = t1.fault;
    benign1 = t1.benign;
    control2 = t2.control;
    fault2 = t2.fault;
    benign2 = t2.benign;
    direction_masks = List.rev !direction;
    escape_masks = List.rev !escape }

let susceptibility p =
  float_of_int (p.control1 + p.control2) /. float_of_int (flips1 + flips2)

type func_surface = {
  fname : string;
  insns : int;
  control1 : int;
  fault1 : int;
  benign1 : int;
  control2 : int;
  fault2 : int;
  benign2 : int;
  score : float;  (** fraction of 1/2-bit perturbations that are Control *)
}

type t = {
  profiles : profile list;
  funcs : func_surface list;
  image_score : float;
  total_flips : int;
}

let analyze (cfg : Cfg.t) =
  let profiles =
    List.map
      (fun (i : Cfg.insn) -> profile_word ~addr:i.addr i.word)
      (Cfg.reachable_insns cfg)
  in
  let by_func = Hashtbl.create 16 in
  let owner = Cfg.owner cfg in
  List.iter
    (fun p ->
      let fname = Option.value ~default:"<orphan>" (owner p.addr) in
      let acc =
        match Hashtbl.find_opt by_func fname with
        | Some acc -> acc
        | None ->
          let acc = ref [] in
          Hashtbl.add by_func fname acc;
          acc
      in
      acc := p :: !acc)
    profiles;
  let funcs =
    List.filter_map
      (fun (fn : Cfg.fn) ->
        match Hashtbl.find_opt by_func fn.name with
        | None -> None
        | Some ps ->
          let ps : profile list = !ps in
          let sum f = List.fold_left (fun a p -> a + f p) 0 ps in
          let control1 = sum (fun p -> p.control1)
          and fault1 = sum (fun p -> p.fault1)
          and benign1 = sum (fun p -> p.benign1)
          and control2 = sum (fun p -> p.control2)
          and fault2 = sum (fun p -> p.fault2)
          and benign2 = sum (fun p -> p.benign2) in
          let insns = List.length ps in
          Some
            { fname = fn.name;
              insns;
              control1;
              fault1;
              benign1;
              control2;
              fault2;
              benign2;
              score =
                (if insns = 0 then 0.
                 else
                   float_of_int (control1 + control2)
                   /. float_of_int (insns * (flips1 + flips2))) })
      cfg.funcs
  in
  let insns = List.length profiles in
  let control =
    List.fold_left (fun a (p : profile) -> a + p.control1 + p.control2) 0 profiles
  in
  let total_flips = insns * (flips1 + flips2) in
  { profiles;
    funcs;
    image_score =
      (if total_flips = 0 then 0.
       else float_of_int control /. float_of_int total_flips);
    total_flips }

(* ------------------------------------------------------------------ *)
(* Predicted dynamic outcomes: which Campaign categories a perturbed
   word can produce when it replaces the taken branch of a
   [Glitch_emu.Testcase.conditional_branch] snippet.  The abstract
   semantics here is what the QCheck differential pins against the real
   emulator: [run_one]'s category must be a member of this set, and
   Fault must coincide exactly with Invalid_instruction. *)

let in_flash a =
  let l = Machine.Loader.snippet_layout in
  a >= l.flash_base && a < l.flash_base + l.flash_size

(* A branch that stays inside flash lands in the snippet or its
   zero-filled tail (a MOVS nop sled): marker semantics decide between
   Success/No_effect, the sled can hit the step limit (Failed) or run
   off the end (Bad_fetch). *)
let inside_branch_outcomes =
  Glitch_emu.Campaign.[ Success; No_effect; Failed; Bad_fetch ]

let predicted_outcomes ~addr word =
  let open Glitch_emu.Campaign in
  match decode word with
  | Thumb.Instr.Undefined _ -> [ Invalid_instruction ]
  | Thumb.Instr.B off ->
    let target = addr + 4 + (2 * off) in
    if in_flash target then inside_branch_outcomes else [ Bad_fetch ]
  | Thumb.Instr.B_cond (_, off) ->
    (* the new condition may or may not hold under the rig's flags *)
    let target = addr + 4 + (2 * off) in
    Success :: (if in_flash target then inside_branch_outcomes else [ Bad_fetch ])
  | Thumb.Instr.Bl_hi _ ->
    (* only poisons LR, then falls through to the skip marker *)
    [ Success ]
  | Thumb.Instr.Bl_lo _ ->
    (* branches to an LR-derived address; LR is 0 in the rig *)
    [ Bad_fetch ]
  | Thumb.Instr.Bx _ ->
    (* register-dependent: odd value → Thumb fetch, even → invalid
       interworking, unmapped → fetch fault *)
    [ Success; No_effect; Failed; Bad_fetch; Invalid_instruction ]
  | Thumb.Instr.Pop { pc = true; _ } ->
    (* PC from a zeroed stack (→ fetch at 0) or a read past SRAM *)
    [ Bad_fetch; Bad_read ]
  | Thumb.Instr.Hi_mov (rd, _) | Thumb.Instr.Hi_add (rd, _)
    when Thumb.Reg.equal rd Thumb.Reg.pc ->
    inside_branch_outcomes
  | Thumb.Instr.Swi _ -> [ Failed ]
  | Thumb.Instr.Bkpt _ ->
    (* immediate halt before the skip marker is written *)
    [ No_effect ]
  | i when Thumb.Instr.is_load i || Thumb.Instr.is_store i ->
    (* the access may fault; otherwise execution falls through to the
       skip marker *)
    [ Success; Bad_read ]
  | _ ->
    (* a pure register/flags operation, then the skip marker *)
    [ Success ]
