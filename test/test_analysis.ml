(* Tests for the static glitch-surface analyzer and defense auditor:
   CFG recovery, the 1/2-bit surface sweep, the lint rules on the
   example firmwares, and the differential property pinning the static
   classification against the dynamic campaign sweep. *)

open Analysis

let compile config source = Resistor.Driver.compile config source

let lint config source = Lint.run (Lint.of_compiled (compile config source))

let contains s ~affix =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

let has_rule ?severity rule (r : Lint.report) =
  List.exists
    (fun (d : Lint.diag) ->
      d.rule = rule
      && match severity with None -> true | Some s -> d.severity = s)
    r.diags

let find_rule rule (r : Lint.report) =
  List.filter (fun (d : Lint.diag) -> d.rule = rule) r.diags

(* --- CFG recovery ----------------------------------------------------------- *)

let cfg_recovers_firmware () =
  let c = compile Resistor.Config.none Resistor.Firmware.guard_loop in
  let cfg = Cfg.of_image c.image in
  Alcotest.(check bool) "main recovered" true (Cfg.find_fn cfg "main" <> None);
  Alcotest.(check bool)
    "entry block exists" true
    (Cfg.block_at cfg c.image.entry <> None);
  Alcotest.(check bool)
    "reachable instructions" true
    (List.length (Cfg.reachable_insns cfg) > 10);
  Alcotest.(check bool)
    "has conditional guards" true
    (Cfg.conditionals cfg <> []);
  (* traversal must never walk off the image or hit undecodable words
     in compiler output *)
  List.iter
    (fun a ->
      match a with
      | Cfg.Fallthrough_off _ | Cfg.Target_outside _ | Cfg.Undecodable _
      | Cfg.Dangling_bl _ ->
        Alcotest.failf "unexpected anomaly: %a" Cfg.pp_anomaly a
      | Cfg.Unreachable_code _ | Cfg.Computed_target _ -> ())
    cfg.anomalies

let cfg_owner_and_literals () =
  (* if_success materialises 32-bit constants, so literal pools exist
     and must be classified as data, not code *)
  let c =
    compile
      (Resistor.Config.only ~enums:true ~returns:true ())
      Resistor.Firmware.if_success
  in
  let cfg = Cfg.of_image c.image in
  Alcotest.(check bool) "literal pools found" true (cfg.data_halfwords > 0);
  List.iter
    (fun (f : Cfg.fn) ->
      Alcotest.(check (option string))
        ("owner of " ^ f.name)
        (Some f.name)
        (Cfg.owner cfg f.entry))
    cfg.funcs

let cfg_taken_edge_first () =
  let c = compile Resistor.Config.none Resistor.Firmware.guard_loop in
  let cfg = Cfg.of_image c.image in
  let owning addr =
    List.find_opt
      (fun (b : Cfg.block) ->
        List.exists (fun (i : Cfg.insn) -> i.addr = addr) b.insns)
      cfg.blocks
  in
  List.iter
    (fun (i : Cfg.insn) ->
      match owning i.addr with
      | Some b ->
        Alcotest.(check bool)
          "conditional blocks have two successors" true
          (List.length b.succs = 2 && b.term = Cfg.Cond)
      | None -> Alcotest.fail "conditional without a block")
    (Cfg.conditionals cfg)

(* --- static surface --------------------------------------------------------- *)

(* the BEQ of the Figure-2 snippet, at its rig address *)
let beq_case = Glitch_emu.Testcase.conditional_branch Thumb.Instr.EQ
let beq_word = Glitch_emu.Testcase.target_word beq_case
let beq_addr = Glitch_emu.Campaign.flash_base + (2 * beq_case.target_index)

let surface_branch_profile () =
  let p = Surface.profile_word ~addr:beq_addr beq_word in
  Alcotest.(check int) "16 one-bit flips" Surface.flips1
    (p.control1 + p.fault1 + p.benign1);
  Alcotest.(check int) "120 two-bit flips" Surface.flips2
    (p.control2 + p.fault2 + p.benign2);
  (* every perturbation of a branch changes control flow or faults *)
  Alcotest.(check int) "no benign 1-bit flip of a branch" 0 p.benign1;
  Alcotest.(check int) "no benign 2-bit flip of a branch" 0 p.benign2;
  (* bit 8 complements the condition: exactly one direction mask *)
  Alcotest.(check (list int)) "direction flip mask" [ 0x0100 ]
    p.direction_masks;
  Alcotest.(check bool) "escape masks exist" true (p.escape_masks <> []);
  List.iter
    (fun m ->
      let instr = Thumb.Decode.instr (beq_word lxor m) in
      Alcotest.(check bool)
        "escape degrades to straight-line" false
        (Surface.diverts instr))
    p.escape_masks

let surface_fault_iff_undecodable () =
  for mask = 1 to 0xFFFF do
    if Glitch_emu.Bitmask.popcount mask <= 2 then begin
      let word = beq_word lxor mask in
      let undecodable =
        match Thumb.Decode.instr word with
        | Thumb.Instr.Undefined _ -> true
        | _ -> false
      in
      Alcotest.(check bool)
        (Printf.sprintf "mask 0x%04x" mask)
        undecodable
        (Surface.classify ~old_word:beq_word word = Surface.Fault)
    end
  done

let surface_alu_mostly_benign () =
  (* movs r5, #0xAD: flips inside the immediate or register fields stay
     straight-line *)
  let word =
    Thumb.Encode.instr (Thumb.Instr.Imm (Thumb.Instr.MOVi, Thumb.Reg.r5, 0xAD))
  in
  let p = Surface.profile_word word in
  Alcotest.(check bool) "ALU word has benign flips" true (p.benign1 > 0);
  Alcotest.(check (list int)) "no direction flip on ALU" [] p.direction_masks

let surface_scores () =
  let c = compile Resistor.Config.none Resistor.Firmware.guard_loop in
  let s = Surface.analyze (Cfg.of_image c.image) in
  Alcotest.(check bool) "score in (0,1)" true
    (s.image_score > 0. && s.image_score < 1.);
  Alcotest.(check int) "136 flips per instruction"
    ((Surface.flips1 + Surface.flips2) * List.length s.profiles)
    s.total_flips;
  let main =
    List.find (fun (f : Surface.func_surface) -> f.fname = "main") s.funcs
  in
  Alcotest.(check bool) "main has instructions" true (main.insns > 0)

(* --- differential: static classification vs dynamic campaign ------------------ *)

let dynamic_config = Glitch_emu.Campaign.default_config Glitch_emu.Fault_model.Xor

let check_one_mask (case : Glitch_emu.Testcase.t) mask =
  let old_word = Glitch_emu.Testcase.target_word case in
  let word = old_word lxor mask in
  let addr = Glitch_emu.Campaign.flash_base + (2 * case.target_index) in
  let dynamic = Glitch_emu.Campaign.run_one dynamic_config case ~mask in
  let predicted = Surface.predicted_outcomes ~addr word in
  if not (List.mem dynamic predicted) then
    Alcotest.failf "%s mask 0x%04x: dynamic %s not in predicted {%s}"
      case.name mask
      (Glitch_emu.Campaign.category_name dynamic)
      (String.concat ", "
         (List.map Glitch_emu.Campaign.category_name predicted));
  let static = Surface.classify ~old_word word in
  (* Fault (undecodable) always shows up as Invalid_instruction; the
     converse can fail for decodable-but-ill-formed transfers (bx to a
     non-Thumb address), which predicted_outcomes already covers. *)
  if static = Surface.Fault then
    Alcotest.(check bool)
      (Printf.sprintf "%s mask 0x%04x: Fault implies Invalid_instruction"
         case.name mask)
      true
      (dynamic = Glitch_emu.Campaign.Invalid_instruction);
  Alcotest.(check bool)
    (Printf.sprintf "%s mask 0x%04x: branch flip is never Benign" case.name
       mask)
    true (static <> Surface.Benign)

(* Exhaustive over the masks the surface sweep enumerates: every 1-
   and 2-bit flip of every conditional branch, 14 x (16 + 120) runs. *)
let differential_exhaustive () =
  List.iter
    (fun case ->
      for mask = 1 to 0xFFFF do
        if Glitch_emu.Bitmask.popcount mask <= 2 then check_one_mask case mask
      done)
    Glitch_emu.Testcase.all_conditional_branches

(* ... and sampled over arbitrary-weight masks, where the prediction
   must stay a sound over-approximation. *)
let prop_differential_any_mask =
  QCheck.Test.make ~name:"static classification agrees with the dynamic sweep"
    ~count:200
    QCheck.(pair (int_bound 13) (int_range 1 0xFFFF))
    (fun (case_idx, mask) ->
      let case =
        List.nth Glitch_emu.Testcase.all_conditional_branches case_idx
      in
      check_one_mask case mask;
      true)

(* classify_flip under all three fault models against the real
   emulator: an identity application must leave the run
   indistinguishable from the baseline (No_effect), a Fault verdict
   must surface as Invalid_instruction, and any non-identity verdict
   must agree with [predicted_outcomes] on the word the model actually
   produces. *)
let check_one_flip model (case : Glitch_emu.Testcase.t) mask =
  let old_word = Glitch_emu.Testcase.target_word case in
  let word = Glitch_emu.Fault_model.apply model ~mask old_word land 0xFFFF in
  let addr = Glitch_emu.Campaign.flash_base + (2 * case.target_index) in
  let dynamic =
    Glitch_emu.Campaign.run_one
      (Glitch_emu.Campaign.default_config model)
      case ~mask
  in
  let static = Surface.classify_flip model ~mask ~old_word in
  let label fmt =
    Printf.sprintf
      ("%s %s mask 0x%04x: " ^^ fmt)
      (Glitch_emu.Fault_model.name model)
      case.name mask
  in
  if word = old_word then begin
    Alcotest.(check bool)
      (label "identity application is Benign")
      true (static = Surface.Benign);
    Alcotest.(check bool)
      (label "identity application leaves the baseline outcome")
      true
      (dynamic = Glitch_emu.Campaign.No_effect)
  end
  else begin
    let predicted = Surface.predicted_outcomes ~addr word in
    if not (List.mem dynamic predicted) then
      Alcotest.failf "%s"
        (label "dynamic %s not in predicted {%s}"
           (Glitch_emu.Campaign.category_name dynamic)
           (String.concat ", "
              (List.map Glitch_emu.Campaign.category_name predicted)));
    if static = Surface.Fault then
      Alcotest.(check bool)
        (label "Fault implies Invalid_instruction")
        true
        (dynamic = Glitch_emu.Campaign.Invalid_instruction);
    Alcotest.(check bool)
      (label "non-identity branch perturbation is never Benign")
      true
      (static <> Surface.Benign)
  end

let prop_differential_fault_models =
  QCheck.Test.make
    ~name:"classify_flip agrees with the dynamic sweep under And/Or/Xor"
    ~count:300
    QCheck.(triple (int_bound 2) (int_bound 13) (int_range 0 0xFFFF))
    (fun (model_idx, case_idx, mask) ->
      let model = List.nth Glitch_emu.Fault_model.all model_idx in
      let case =
        List.nth Glitch_emu.Testcase.all_conditional_branches case_idx
      in
      check_one_flip model case mask;
      true)

(* the weight-w selections of the XOR model are exactly the XOR sweep:
   flip_surface must reproduce profile_word's tallies column for
   column *)
let flip_surface_xor_matches_profile () =
  List.iter
    (fun (case : Glitch_emu.Testcase.t) ->
      let word = Glitch_emu.Testcase.target_word case in
      let p = Surface.profile_word word in
      let t = Surface.flip_surface Glitch_emu.Fault_model.Xor word in
      Alcotest.(check int) (case.name ^ ": control") (p.control1 + p.control2)
        t.f_control;
      Alcotest.(check int) (case.name ^ ": fault") (p.fault1 + p.fault2)
        t.f_fault;
      Alcotest.(check int) (case.name ^ ": benign") (p.benign1 + p.benign2)
        t.f_benign;
      Alcotest.(check int) (case.name ^ ": xor has no identity selections") 0
        t.f_identity)
    Glitch_emu.Testcase.all_conditional_branches

(* And can only clear set bits, Or can only set cleared ones: on any
   word the two models' identity selections partition the 136
   bit-selections between them (a selection is And-identity iff it
   picks only zeros, Or-identity iff only ones — weight <= 2 means no
   mixed selection is identity for either). *)
let flip_surface_unidirectional_identities () =
  List.iter
    (fun (case : Glitch_emu.Testcase.t) ->
      let word = Glitch_emu.Testcase.target_word case in
      let a = Surface.flip_surface Glitch_emu.Fault_model.And word in
      let o = Surface.flip_surface Glitch_emu.Fault_model.Or word in
      Alcotest.(check bool)
        (case.name ^ ": identities are benign (And)")
        true (a.f_identity <= a.f_benign);
      Alcotest.(check bool)
        (case.name ^ ": identities are benign (Or)")
        true (o.f_identity <= o.f_benign);
      let ones = Glitch_emu.Bitmask.popcount (word land 0xFFFF) in
      let zeros = 16 - ones in
      let pairs n = n * (n - 1) / 2 in
      Alcotest.(check int)
        (case.name ^ ": And identities = zero-only selections")
        (zeros + pairs zeros) a.f_identity;
      Alcotest.(check int)
        (case.name ^ ": Or identities = one-only selections")
        (ones + pairs ones) o.f_identity)
    Glitch_emu.Testcase.all_conditional_branches

(* --- defense audit ----------------------------------------------------------- *)

let lint_undefended_guard_loop () =
  let r = lint Resistor.Config.none Resistor.Firmware.guard_loop in
  let guard_errors =
    List.filter
      (fun (d : Lint.diag) -> d.severity = Lint.Error)
      (find_rule "guard-flippable" r)
  in
  Alcotest.(check bool) "guard flagged" true (guard_errors <> []);
  List.iter
    (fun (d : Lint.diag) ->
      Alcotest.(check string) "owned by main" "main" d.func;
      Alcotest.(check bool)
        "message names the single-bit flip" true
        (contains ~affix:"single-bit" d.message))
    guard_errors

let lint_defended_guard_loop () =
  let r = lint (Resistor.Config.all ~sensitive:[ "a" ] ()) Resistor.Firmware.guard_loop in
  Alcotest.(check (list string)) "defended build is clean" []
    (List.map (fun (d : Lint.diag) -> d.rule ^ ": " ^ d.message) (Lint.errors r));
  Alcotest.(check bool)
    "guards reported as re-checked" true
    (List.exists
       (fun (d : Lint.diag) ->
         d.severity = Lint.Info
         && contains ~affix:"complemented duplicate" d.message)
       (find_rule "guard-flippable" r))

let secure_boot_source =
  (* mirrors examples/firmware/secure_boot.c *)
  {|
enum verdict { SIG_OK, SIG_BAD };

volatile unsigned fw_word0 = 0xDEAD0001;
volatile unsigned fw_word1 = 0xBEEF0002;
volatile unsigned expected = 0x61B2C290;
volatile unsigned attack_success = 0;

int verify_signature(void) {
  unsigned digest = 0;
  digest = digest ^ (fw_word0 * 3);
  digest = digest ^ (fw_word1 * 5);
  if (digest == expected) { return SIG_OK; }
  return SIG_BAD;
}

int main(void) {
  __trigger_high();
  if (verify_signature() == SIG_OK) {
    attack_success = 170;
    __halt();
  }
  while (1) { }
  return 0;
}
|}

let defense_pipeline_source =
  (* mirrors examples/firmware/defense_pipeline.c *)
  {|
enum door_state { LOCKED, UNLOCKED, JAMMED };

volatile unsigned pin_ok = 0;
volatile unsigned door = 0;

int check_pin(void) {
  if (pin_ok == 1) { return UNLOCKED; }
  return LOCKED;
}

int main(void) {
  for (int tries = 0; tries < 3; tries = tries + 1) {
    if (check_pin() == UNLOCKED) {
      door = 1;
      return 0;
    }
  }
  return 1;
}
|}

let lint_example_firmwares () =
  let undefended = lint Resistor.Config.none secure_boot_source in
  Alcotest.(check bool)
    "secure_boot undefended flags guards" true
    (has_rule ~severity:Lint.Error "guard-flippable" undefended);
  let defended =
    lint
      (Resistor.Config.all_but_delay
         ~sensitive:[ "expected"; "attack_success" ] ())
      secure_boot_source
  in
  Alcotest.(check int) "secure_boot defended is clean" 0
    (List.length (Lint.errors defended));
  let undefended = lint Resistor.Config.none defense_pipeline_source in
  Alcotest.(check bool)
    "defense_pipeline undefended flags guards" true
    (has_rule ~severity:Lint.Error "guard-flippable" undefended);
  let defended =
    lint (Resistor.Config.all_but_delay ~sensitive:[ "door" ] ())
      defense_pipeline_source
  in
  Alcotest.(check int) "defense_pipeline defended is clean" 0
    (List.length (Lint.errors defended))

let lint_enum_and_return_hamming () =
  let r =
    lint
      (Resistor.Config.only ~enums:true ~returns:true ())
      Resistor.Firmware.if_success
  in
  Alcotest.(check bool) "enum rule ran" true (has_rule "enum-hamming" r);
  Alcotest.(check bool)
    "diversified enums pass the distance bound" false
    (has_rule ~severity:Lint.Error "enum-hamming" r);
  Alcotest.(check bool)
    "diversified returns pass the distance bound" false
    (has_rule ~severity:Lint.Error "return-hamming" r)

(* The Table VII witness: CFCSS-only firmware passes its own signature
   audit, yet every guard remains direction-flippable along legal
   edges. *)
let lint_cfcss_witness () =
  let m, reports =
    Resistor.Driver.compile_modul Resistor.Config.none
      Resistor.Firmware.guard_loop
  in
  let report = Resistor.Cfcss.run Resistor.Config.Spin m in
  let reports =
    { reports with
      Resistor.Driver.verify_warnings =
        reports.Resistor.Driver.verify_warnings
        @ Resistor.Pass.drain_warnings () }
  in
  let target =
    { Lint.image = Lower.Layout.link m;
      modul = Some m;
      config = Some Resistor.Config.none;
      reports = Some reports;
      cfcss = Some report }
  in
  let r = Lint.run target in
  Alcotest.(check bool)
    "signature audit is clean" false
    (has_rule ~severity:Lint.Error "cfcss-signature" r);
  Alcotest.(check bool)
    "clean audit cites the limitation" true
    (List.exists
       (fun (d : Lint.diag) ->
         contains ~affix:"Table VII" d.message)
       (find_rule "cfcss-signature" r));
  Alcotest.(check bool)
    "guards still flippable" true
    (has_rule ~severity:Lint.Error "guard-flippable" r)

(* The same witness shape for the post-paper CFI passes: a defended
   build audits clean (with the limitation cited), a sabotaged build —
   checks suppressed by the Sigcfi_checks/Domains_checks mutant — is
   flagged. *)
let cfi_errors (r : Lint.report) =
  List.filter
    (fun (d : Lint.diag) ->
      contains ~affix:"sigcfi" d.rule || contains ~affix:"domains" d.rule)
    (Lint.errors r)
  |> List.map (fun (d : Lint.diag) -> d.rule ^ ": " ^ d.message)

let lint_sigcfi_audit () =
  let config = Resistor.Config.only ~sigcfi:true () in
  let r = lint config Resistor.Firmware.guard_loop in
  (* sigcfi alone leaves branch directions unprotected (guard-flippable
     errors are expected residue); its own audit must be clean *)
  Alcotest.(check (list string)) "defended build clean" [] (cfi_errors r);
  Alcotest.(check bool) "clean audit cites the limitation" true
    (List.exists
       (fun (d : Lint.diag) -> contains ~affix:"Table VII" d.message)
       (find_rule "sigcfi-sink" r));
  let sabotaged =
    Mutant.with_ (Some Sigcfi_checks) (fun () ->
        lint config Resistor.Firmware.guard_loop)
  in
  Alcotest.(check bool) "sabotaged build flagged" true
    (has_rule ~severity:Lint.Error "sigcfi-sink" sabotaged)

let lint_domains_audit () =
  let config = Resistor.Config.only ~domains:true () in
  let r = lint config Resistor.Firmware.guard_loop in
  Alcotest.(check (list string)) "defended build clean" [] (cfi_errors r);
  Alcotest.(check bool) "clean audit leaves a witness" true
    (has_rule ~severity:Lint.Info "domains-check" r);
  let sabotaged =
    Mutant.with_ (Some Domains_checks) (fun () ->
        lint config Resistor.Firmware.guard_loop)
  in
  Alcotest.(check bool) "sabotaged build flagged" true
    (has_rule ~severity:Lint.Error "domains-check" sabotaged)

let lint_stacked_cfi_clean () =
  let config =
    { (Resistor.Config.all_but_delay ~sensitive:[ "a" ] ()) with
      sigcfi = true; domains = true }
  in
  let r = lint config Resistor.Firmware.guard_loop in
  Alcotest.(check (list string)) "stacked build clean" []
    (List.map (fun (d : Lint.diag) -> d.rule ^ ": " ^ d.message) (Lint.errors r))

(* --- structural audit units --------------------------------------------------- *)

let build_plain_loop () =
  let b = Ir.Builder.create ~fname:"f" ~params:[ "n" ] ~returns_value:true in
  Ir.Builder.br b "head";
  let _ = Ir.Builder.new_block b "head" in
  let n = Ir.Builder.load b (Ir.Local "n") in
  let c = Ir.Builder.icmp b Ir.Ne n (Ir.Const 0) in
  Ir.Builder.cond_br b c ~if_true:"body" ~if_false:"exit";
  let _ = Ir.Builder.new_block b "body" in
  let n2 = Ir.Builder.load b (Ir.Local "n") in
  let d = Ir.Builder.binop b Ir.Sub n2 (Ir.Const 1) in
  Ir.Builder.store b (Ir.Local "n") d;
  Ir.Builder.br b "head";
  let _ = Ir.Builder.new_block b "exit" in
  Ir.Builder.ret b (Some (Ir.Const 0));
  Ir.Builder.func b

let audit_unguarded_loop () =
  match Lint.audit_func (build_plain_loop ()) with
  | Lint.Unguarded { branches; loops } ->
    Alcotest.(check bool) "loop guard unprotected" true
      (branches > 0 && loops > 0)
  | Lint.Protected -> Alcotest.fail "bare loop audited as protected"
  | Lint.No_conditionals -> Alcotest.fail "loop guard not seen"

let audit_straight_line () =
  let b = Ir.Builder.create ~fname:"g" ~params:[] ~returns_value:true in
  Ir.Builder.ret b (Some (Ir.Const 7));
  match Lint.audit_func (Ir.Builder.func b) with
  | Lint.No_conditionals -> ()
  | _ -> Alcotest.fail "straight-line function has no guards"

let audit_defended_module () =
  let c =
    compile (Resistor.Config.all ~sensitive:[ "a" ] ()) Resistor.Firmware.guard_loop
  in
  match Ir.find_func c.modul "main" with
  | None -> Alcotest.fail "no main"
  | Some f -> (
    match Lint.audit_func f with
    | Lint.Protected -> ()
    | Lint.Unguarded { branches; loops } ->
      Alcotest.failf "defended main audited unguarded (%d branches, %d loops)"
        branches loops
    | Lint.No_conditionals -> Alcotest.fail "defended main lost its guards")

let hamming_helpers () =
  Alcotest.(check int) "0 vs 0xFF" 8 (Lint.min_pairwise [ 0; 0xFF ]);
  Alcotest.(check int) "triple takes the min" 1
    (Lint.min_pairwise [ 0; 0xFF; 0xFE ]);
  Alcotest.(check int) "singleton" max_int (Lint.min_pairwise [ 42 ]);
  let c =
    compile
      (Resistor.Config.only ~enums:true ~returns:true ())
      Resistor.Firmware.if_success
  in
  (match c.reports.enum_report with
  | Some er ->
    List.iter
      (fun (ename, members) ->
        List.iter
          (fun (mname, v) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s.%s linked into image" ename mname)
              true
              (Lint.constant_in_image c.image v))
          members)
      er.rewritten
  | None -> Alcotest.fail "enum pass did not run");
  Alcotest.(check bool) "absent constant" false
    (Lint.constant_in_image c.image 0x5A5A5A77)

(* --- json -------------------------------------------------------------------- *)

let json_shape () =
  let r = lint Resistor.Config.none Resistor.Firmware.guard_loop in
  Json_check.roundtrip "lint report" (Lint.to_json r);
  let j = Json.to_string (Lint.to_json r) in
  Alcotest.(check bool) "has errors field" true
    (contains ~affix:"\"errors\":" j);
  Alcotest.(check bool) "has guard-flippable" true
    (contains ~affix:"\"rule\":\"guard-flippable\"" j);
  Alcotest.(check bool) "single line" false (String.contains j '\n')

let () =
  Alcotest.run "analysis"
    [ ( "cfg",
        [ Alcotest.test_case "recovers firmware" `Quick cfg_recovers_firmware;
          Alcotest.test_case "owners and literal pools" `Quick
            cfg_owner_and_literals;
          Alcotest.test_case "conditional successors" `Quick
            cfg_taken_edge_first ] );
      ( "surface",
        [ Alcotest.test_case "branch profile" `Quick surface_branch_profile;
          Alcotest.test_case "fault iff undecodable" `Quick
            surface_fault_iff_undecodable;
          Alcotest.test_case "alu flips benign" `Quick surface_alu_mostly_benign;
          Alcotest.test_case "image scores" `Quick surface_scores ] );
      ( "differential",
        [ Alcotest.test_case "all 1/2-bit flips vs campaign" `Slow
            differential_exhaustive;
          Qseed.to_alcotest prop_differential_any_mask;
          Qseed.to_alcotest prop_differential_fault_models;
          Alcotest.test_case "flip_surface XOR column matches profile_word"
            `Quick flip_surface_xor_matches_profile;
          Alcotest.test_case "And/Or identity selections accounted" `Quick
            flip_surface_unidirectional_identities ] );
      ( "lint",
        [ Alcotest.test_case "undefended guard loop" `Quick
            lint_undefended_guard_loop;
          Alcotest.test_case "defended guard loop" `Quick
            lint_defended_guard_loop;
          Alcotest.test_case "example firmwares" `Quick lint_example_firmwares;
          Alcotest.test_case "enum and return hamming" `Quick
            lint_enum_and_return_hamming;
          Alcotest.test_case "cfcss witness (Table VII)" `Quick
            lint_cfcss_witness;
          Alcotest.test_case "sigcfi audit + sabotage" `Quick lint_sigcfi_audit;
          Alcotest.test_case "domains audit + sabotage" `Quick
            lint_domains_audit;
          Alcotest.test_case "stacked cfi clean" `Quick lint_stacked_cfi_clean;
          Alcotest.test_case "json shape" `Quick json_shape ] );
      ( "audit",
        [ Alcotest.test_case "unguarded loop" `Quick audit_unguarded_loop;
          Alcotest.test_case "straight line" `Quick audit_straight_line;
          Alcotest.test_case "defended module" `Quick audit_defended_module;
          Alcotest.test_case "hamming helpers" `Quick hamming_helpers ] ) ]
