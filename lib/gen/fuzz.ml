(* Randomized differential defense testing — the engine behind
   [glitchctl fuzz].

   Every generated Mini-C program is pushed through up to four property
   families:

   - {e roundtrip}: the pretty-printer output reparses to the same AST;
   - {e semantics}: for every pass configuration, the glitch-free
     defended binary's observable behaviour (volatile I/O trace,
     trigger edges, exit value, final globals) equals the [Ir.Interp]
     source-level oracle, and every defended configuration matches the
     undefended reference;
   - {e efficacy}: a defended guard never silently accepts a corrupted
     branch under the 1/2-bit flash sweep, with the marker/detector
     accounting cross-checked against the Campaign stop taxonomy;
   - {e static/dynamic}: the [Analysis.Lint] / [Analysis.Surface]
     verdicts agree with the dynamic campaign outcomes.

   Failing cases are shrunk by QCheck and saved to [corpus/] as
   replayable Mini-C files ([Corpus]). *)

module Ast = Minic.Ast
module Config = Resistor.Config
module Campaign = Glitch_emu.Campaign

type family = Roundtrip | Semantics | Efficacy | Static_dynamic | Absint

let all_families = [ Roundtrip; Semantics; Efficacy; Static_dynamic; Absint ]

let family_name = function
  | Roundtrip -> "roundtrip"
  | Semantics -> "semantics"
  | Efficacy -> "efficacy"
  | Static_dynamic -> "static-dynamic"
  | Absint -> "absint"

let family_of_string = function
  | "roundtrip" -> Some Roundtrip
  | "semantics" -> Some Semantics
  | "efficacy" -> Some Efficacy
  | "static-dynamic" | "static_dynamic" -> Some Static_dynamic
  | "absint" -> Some Absint
  | _ -> None

type verdict = Pass | Skip of string | Fail of string

(* ------------------------------------------------------------------ *)
(* shared plumbing                                                     *)

exception Check_failed of string
exception Check_skipped of string

let failf fmt = Printf.ksprintf (fun m -> raise (Check_failed m)) fmt
let skipf fmt = Printf.ksprintf (fun m -> raise (Check_skipped m)) fmt

let guard_check f =
  match f () with
  | () -> Pass
  | exception Check_failed m -> Fail m
  | exception Check_skipped m -> Skip m

let stop_name : Machine.Exec.stop -> string = function
  | Machine.Exec.Breakpoint a -> Printf.sprintf "breakpoint@0x%x" a
  | Machine.Exec.Swi_trap a -> Printf.sprintf "swi@0x%x" a
  | Machine.Exec.Bad_read a -> Printf.sprintf "bad-read@0x%x" a
  | Machine.Exec.Bad_write a -> Printf.sprintf "bad-write@0x%x" a
  | Machine.Exec.Bad_fetch a -> Printf.sprintf "bad-fetch@0x%x" a
  | Machine.Exec.Invalid_instruction a -> Printf.sprintf "invalid@0x%x" a
  | Machine.Exec.Step_limit -> "step-limit"

let source_globals prog =
  List.filter_map
    (function Ast.Iglobal g -> Some g.Ast.gname | _ -> None)
    prog

let source_volatile_globals prog =
  List.filter_map
    (function
      | Ast.Iglobal g when g.Ast.gvolatile -> Some g.Ast.gname
      | _ -> None)
    prog

let has_marker prog =
  List.mem Resistor.Firmware.attack_marker_global (source_globals prog)

let sema_ok prog =
  match Minic.Sema.check ~externs:Resistor.Driver.firmware_externs prog with
  | _ -> true
  | exception Minic.Sema.Error _ -> false

let compile_result config source =
  match Resistor.Driver.compile config source with
  | c -> Ok c
  | exception Minic.Parser.Error e -> Error (Fmt.str "%a" Minic.Parser.pp_error e)
  | exception Minic.Sema.Error e -> Error (Fmt.str "%a" Minic.Sema.pp_error e)
  | exception Lower.Layout.Error e -> Error (Fmt.str "%a" Lower.Layout.pp_error e)
  | exception Lower.Codegen.Error e ->
    Error (Fmt.str "%a" Lower.Codegen.pp_error e)
  | exception e -> Error (Printexc.to_string e)

(* The backend's one documented capacity limit: a frame needs one slot
   per local and temp, and [ldr rd, [sp, #imm]] addresses at most 255 of
   them, so a generated program can legitimately outgrow the frame once
   every pass has piled on its temps. That is a precondition miss for
   the differential properties, not a finding — unlike the literal-pool
   and branch-range limits, which codegen is expected to relax away. *)
let capacity_message m =
  let needle = "too many stack slots" in
  let nl = String.length needle and ml = String.length m in
  let rec go i = i + nl <= ml && (String.sub m i nl = needle || go (i + 1)) in
  go 0

let globals_str gs =
  String.concat ", " (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) gs)

let trace_str tr =
  String.concat "; " (List.map Oracle.obs_event_to_string tr)

let restrict names assoc = List.filter (fun (n, _) -> List.mem n names) assoc

(* ------------------------------------------------------------------ *)
(* family 1: pretty-printer round trip                                 *)

let check_roundtrip (case : Ast_gen.case) =
  guard_check @@ fun () ->
  let src = Ast_gen.source_of_case case in
  match Minic.Parser.program src with
  | exception e -> failf "reparse raised %s" (Printexc.to_string e)
  | prog ->
    if not (Ast.equal_program case.prog prog) then
      failf "pretty-printed program reparses to a different AST"

(* ------------------------------------------------------------------ *)
(* family 2: semantics preservation across pass configurations         *)

let semantics_configs prog =
  let sensitive = source_globals prog in
  Config.none
  :: List.map (fun d -> Config.make ~sensitive [ d ]) Config.all_defenses
  @ List.map (Config.set ~sensitive) [ "all-but-delay"; "all"; "all-cfi" ]

let check_semantics (case : Ast_gen.case) =
  guard_check @@ fun () ->
  if case.shape <> Ast_gen.Terminating then
    skipf "semantics oracle needs a terminating program";
  if not (sema_ok case.prog) then skipf "source does not sema-check";
  let src = Ast_gen.source_of_case case in
  let watch = source_volatile_globals case.prog in
  let names = source_globals case.prog in
  let reference = ref None in
  List.iter
    (fun config ->
      let cname = Config.name config in
      let compiled =
        match compile_result config src with
        | Ok c -> c
        | Error m when capacity_message m -> skipf "%s: %s" cname m
        | Error m -> failf "%s: compile failed: %s" cname m
      in
      (* The undefended reference is capped tight: a program that needs
         more than ~400k interpreted instructions is a degenerate
         shrinker artifact, and skipping it early keeps the cycle
         budgets of every later leg comfortably clear of the board's
         40M-cycle ceiling. *)
      let fuel = if !reference = None then 400_000 else 4_000_000 in
      let interp =
        match Oracle.run_interp ~fuel ~watch compiled.Resistor.Driver.modul with
        | Ok r -> r
        | Error m ->
          (* Fuel exhaustion on the undefended module is a precondition
             miss (the shrinker can build unbounded loops out of bounded
             ones), not a divergence. Once the None reference ran fine,
             a defended-module failure is a real finding. *)
          if !reference = None then
            skipf "%s: interpreter did not finish (%s)" cname m
          else failf "%s: interpreter failed: %s" cname m
      in
      (* leg A: the architectural run must match the interpreter on the
         same (defended) module *)
      let arch =
        Oracle.run_board ~max_cycles:40_000_000 compiled.Resistor.Driver.modul
          compiled.Resistor.Driver.image
      in
      (match arch.Oracle.stop with
      | Some (Machine.Exec.Breakpoint _) -> ()
      | Some s -> failf "%s: board stopped abnormally (%s)" cname (stop_name s)
      | None -> failf "%s: board timed out" cname);
      (match arch.Oracle.exit_code with
      | Some r when r <> interp.Oracle.ret ->
        failf "%s: exit code %d (board) vs %d (interp)" cname r
          interp.Oracle.ret
      | _ -> ());
      let ag = restrict names arch.Oracle.arch_globals in
      let ig = restrict names interp.Oracle.final_globals in
      if ag <> ig then
        failf "%s: final globals diverge: board {%s} vs interp {%s}" cname
          (globals_str ag) (globals_str ig);
      if arch.Oracle.arch_edges <> interp.Oracle.edges then
        failf "%s: %d trigger edges (board) vs %d (interp)" cname
          arch.Oracle.arch_edges interp.Oracle.edges;
      (* leg B: every defended configuration must match the undefended
         reference at the source level *)
      match !reference with
      | None -> reference := Some interp
      | Some ref_run ->
        if interp.Oracle.ret <> ref_run.Oracle.ret then
          failf "%s: exit code %d vs %d under None" cname interp.Oracle.ret
            ref_run.Oracle.ret;
        let fg = restrict names interp.Oracle.final_globals in
        let rg = restrict names ref_run.Oracle.final_globals in
        if fg <> rg then
          failf "%s: final globals {%s} vs {%s} under None" cname
            (globals_str fg) (globals_str rg);
        if interp.Oracle.trace <> ref_run.Oracle.trace then
          failf "%s: volatile I/O trace diverges from None:\n  none: %s\n  %s: %s"
            cname (trace_str ref_run.Oracle.trace) cname
            (trace_str interp.Oracle.trace);
        if interp.Oracle.edges <> ref_run.Oracle.edges then
          failf "%s: %d trigger edges vs %d under None" cname
            interp.Oracle.edges ref_run.Oracle.edges)
    (semantics_configs case.prog)

(* ------------------------------------------------------------------ *)
(* family 3: efficacy generalization under the 1/2-bit sweep           *)

(* Every config here must protect branch *directions* (Branches/Loops):
   the CFI passes alone leave legal-edge flips invisible (Table VII),
   so they ride on top of the redundancy passes, never alone. *)
let defended_configs prog =
  let sensitive = source_globals prog in
  Config.make [ Branches; Loops ]
  :: List.map (Config.set ~sensitive) [ "all-but-delay"; "all-cfi" ]

(* Boot-relative cycle budget plus the pristine-image sanity run. *)
let sweep_setup cname (compiled : Resistor.Driver.compiled) =
  let image = compiled.image in
  let budget =
    match Oracle.boot_budget image with
    | Some b -> b
    | None -> skipf "%s: no trigger edge reached in the pristine image" cname
  in
  let base = Oracle.run_board ~max_cycles:budget compiled.modul image in
  if base.Oracle.marker = Some Resistor.Firmware.attack_marker_value then
    skipf "%s: pristine run already sets the attack marker" cname;
  if base.Oracle.detections > 0 then
    failf "%s: glitch-free run trips the detector %d times" cname
      base.Oracle.detections;
  (budget, base)

let sweep_conditionals ~budget image =
  let cfg = Analysis.Cfg.of_image image in
  let conds = Analysis.Cfg.conditionals cfg in
  let outcomes =
    List.concat_map
      (fun (insn : Analysis.Cfg.insn) ->
        let profile =
          Analysis.Surface.profile_word ~addr:insn.addr insn.word
        in
        List.map
          (fun mask ->
            Oracle.run_corrupted ~budget image ~addr:insn.addr ~mask)
          (Oracle.guard_masks ~word:insn.word profile))
      conds
  in
  (conds, outcomes)

(* Cross-check the firmware-state oracle (marker + detector counter)
   against the stop-reason taxonomy, and reject any silent success. *)
let check_outcome cname (o : Oracle.glitch_outcome) =
  let where = Printf.sprintf "%s: addr 0x%x mask 0x%04x" cname o.g_addr o.g_mask in
  if Oracle.silent o then
    failf "%s: silent success — marker set with no detection" where;
  if o.succeeded && o.detected then
    failf "%s: accounting mismatch — marker set and detector tripped" where;
  if o.succeeded && o.category <> Campaign.No_effect then
    failf "%s: accounting mismatch — marker set but stop category %s" where
      (Campaign.category_name o.category);
  if o.detected && o.category <> Campaign.Failed then
    failf
      "%s: accounting mismatch — detection should spin into a timeout, got %s"
      where
      (Campaign.category_name o.category)

let check_efficacy (case : Ast_gen.case) =
  guard_check @@ fun () ->
  if case.shape <> Ast_gen.Guarded then skipf "efficacy needs a guarded program";
  if not (has_marker case.prog) then skipf "no attack marker global";
  if not (sema_ok case.prog) then skipf "source does not sema-check";
  let src = Ast_gen.source_of_case case in
  List.iter
    (fun config ->
      let cname = Config.name config in
      let compiled =
        match compile_result config src with
        | Ok c -> c
        | Error m when capacity_message m -> skipf "%s: %s" cname m
        | Error m -> failf "%s: compile failed: %s" cname m
      in
      let budget, _base = sweep_setup cname compiled in
      let _conds, outcomes =
        sweep_conditionals ~budget compiled.Resistor.Driver.image
      in
      List.iter (check_outcome cname) outcomes)
    (defended_configs case.prog)

(* ------------------------------------------------------------------ *)
(* family 4: static and dynamic oracles agree                          *)

let triple (o : Oracle.glitch_outcome) = (o.category, o.succeeded, o.detected)

let check_static_dynamic (case : Ast_gen.case) =
  guard_check @@ fun () ->
  if case.shape <> Ast_gen.Guarded then
    skipf "static/dynamic agreement needs a guarded program";
  if not (has_marker case.prog) then skipf "no attack marker global";
  if not (sema_ok case.prog) then skipf "source does not sema-check";
  let src = Ast_gen.source_of_case case in
  (* Defended image: the auditor must come back clean, and the dynamic
     sweep must agree that nothing slips through. *)
  let defended = Config.all_but_delay ~sensitive:(source_globals case.prog) () in
  let compiled =
    match compile_result defended src with
    | Ok c -> c
    | Error m when capacity_message m -> skipf "All\\Delay: %s" m
    | Error m -> failf "All\\Delay: compile failed: %s" m
  in
  let report = Analysis.Lint.run (Analysis.Lint.of_compiled compiled) in
  (match Analysis.Lint.errors report with
  | [] -> ()
  | d :: _ ->
    failf "All\\Delay: lint reports %d error(s), first: %s %s"
      (List.length (Analysis.Lint.errors report))
      d.Analysis.Lint.rule d.Analysis.Lint.message);
  let budget, _ = sweep_setup "All\\Delay" compiled in
  let _, outcomes = sweep_conditionals ~budget compiled.image in
  List.iter
    (fun o ->
      if Oracle.silent o then
        failf
          "All\\Delay: lint is clean but addr 0x%x mask 0x%04x succeeds \
           silently"
          o.Oracle.g_addr o.Oracle.g_mask)
    outcomes;
  (* Undefended image: the auditor must flag the flippable guard, and
     the dynamic sweep must exhibit the attack it predicts. *)
  let bare =
    match compile_result Config.none src with
    | Ok c -> c
    | Error m -> failf "None: compile failed: %s" m
  in
  let bare_report = Analysis.Lint.run (Analysis.Lint.of_compiled bare) in
  let flippable =
    List.filter
      (fun (d : Analysis.Lint.diag) -> d.rule = "guard-flippable")
      (Analysis.Lint.errors bare_report)
  in
  if flippable = [] then
    failf "None: lint reports no guard-flippable error on an unprotected guard";
  let bare_budget, bare_base = sweep_setup "None" bare in
  let bare_cfg = Analysis.Cfg.of_image bare.image in
  let bare_conds = Analysis.Cfg.conditionals bare_cfg in
  let silent_hit = ref false in
  List.iter
    (fun (insn : Analysis.Cfg.insn) ->
      let profile = Analysis.Surface.profile_word ~addr:insn.addr insn.word in
      List.iter
        (fun mask ->
          let o =
            Oracle.run_corrupted ~budget:bare_budget bare.image
              ~addr:insn.addr ~mask
          in
          if Oracle.silent o then silent_hit := true)
        profile.Analysis.Surface.direction_masks)
    bare_conds;
  if not !silent_hit then
    failf
      "None: lint flags the guard but no direction flip dynamically succeeds";
  (* Per-mask membership: a static Fault verdict must either surface as
     Invalid_instruction or leave the run indistinguishable from the
     pristine baseline (the corrupted word was never fetched). Branch
     words must never be statically Benign. *)
  let baseline_triple =
    (Option.fold ~none:Glitch_emu.Campaign.Failed
       ~some:Glitch_emu.Campaign.category_of_stop bare_base.Oracle.stop,
     bare_base.Oracle.marker = Some Resistor.Firmware.attack_marker_value,
     bare_base.Oracle.detections > 0)
  in
  let first_conds =
    match bare_conds with a :: b :: _ -> [ a; b ] | l -> l
  in
  List.iter
    (fun (insn : Analysis.Cfg.insn) ->
      for bit = 0 to 15 do
        let mask = 1 lsl bit in
        let v = Analysis.Surface.classify ~old_word:insn.word (insn.word lxor mask) in
        if v = Analysis.Surface.Benign then
          failf
            "None: 1-bit flip 0x%04x of branch word 0x%04x@0x%x classified \
             Benign"
            mask insn.word insn.addr;
        if v = Analysis.Surface.Fault then begin
          let o =
            Oracle.run_corrupted ~budget:bare_budget bare.image
              ~addr:insn.addr ~mask
          in
          let invalid = o.Oracle.category = Campaign.Invalid_instruction in
          if (not invalid) && triple o <> baseline_triple then
            failf
              "None: static Fault at 0x%x mask 0x%04x ran to %s instead of \
               Invalid_instruction or the baseline outcome"
              insn.addr mask
              (Campaign.category_name o.Oracle.category)
        end
      done)
    first_conds

(* ------------------------------------------------------------------ *)
(* family 5: the static fault-flow pre-pruner agrees with the oracle   *)

(* Soundness by differential: the campaign with the abstract-interpreter
   pre-pruner enabled must produce bit-identical verdicts — totals,
   per-function rows, and the per-point verdict array — to the oracle
   run that executes every continuation with all pruning off. Checked at
   an undefended and a fully defended configuration, so the prover sees
   detection counters, integrity shadows and CFI state machines. *)
let check_absint (case : Ast_gen.case) =
  guard_check @@ fun () ->
  if not (sema_ok case.prog) then skipf "source does not sema-check";
  let src = Ast_gen.source_of_case case in
  List.iter
    (fun config ->
      let label = Config.name config in
      match compile_result config src with
      | Error m when capacity_message m -> skipf "%s: %s" label m
      | Error m -> failf "%s: compile failed: %s" label m
      | Ok compiled ->
        let spec =
          Exhaust.Campaign.spec_of_image ~name:"fuzz-absint"
            compiled.Resistor.Driver.image
        in
        let cfg =
          { (Exhaust.Campaign.default_config ()) with
            Exhaust.Campaign.weights = [ 1 ];
            max_trace = 96;
            settle_steps = Some 24;
            prune = true;
            static_prune = true;
            keep_points = true }
        in
        let static = Exhaust.Campaign.run spec cfg in
        let oracle =
          Exhaust.Campaign.run spec
            { cfg with Exhaust.Campaign.prune = false; static_prune = false }
        in
        if static.Exhaust.Campaign.totals <> oracle.Exhaust.Campaign.totals
        then failf "%s: static verdict totals diverge from the oracle" label;
        if static.Exhaust.Campaign.rows <> oracle.Exhaust.Campaign.rows then
          failf "%s: static per-function rows diverge from the oracle" label;
        if static.Exhaust.Campaign.verdicts <> oracle.Exhaust.Campaign.verdicts
        then failf "%s: static per-point verdicts diverge from the oracle" label;
        if
          static.Exhaust.Campaign.points
          <> static.faulted + static.pruned + static.executed
             + static.static_pruned
        then
          failf "%s: prune counters do not partition the %d points" label
            static.Exhaust.Campaign.points)
    [ Config.none; Config.all_but_delay ~sensitive:(source_globals case.prog) () ]

(* ------------------------------------------------------------------ *)
(* orchestration                                                       *)

let check family case =
  match family with
  | Roundtrip -> check_roundtrip case
  | Semantics -> check_semantics case
  | Efficacy -> check_efficacy case
  | Static_dynamic -> check_static_dynamic case
  | Absint -> check_absint case

let family_arb = function
  | Roundtrip | Absint -> Ast_gen.arb_any
  | Semantics -> Ast_gen.arb_terminating
  | Efficacy | Static_dynamic -> Ast_gen.arb_guarded

(* Distinct deterministic RNG stream per family, derived from the run
   seed so one seed reproduces the whole run. *)
let family_index = function
  | Roundtrip -> 1
  | Semantics -> 2
  | Efficacy -> 3
  | Static_dynamic -> 4
  | Absint -> 5

type failure = {
  message : string;
  shrink_steps : int;
  source : string;  (** shrunk counterexample, pretty-printed *)
  corpus_path : string option;
}

type family_run = {
  family : family;
  checked : int;  (** property evaluations, skips included *)
  skipped : int;
  failure : failure option;
}

type summary = {
  seed : int;
  count : int;
  runs : family_run list;
}

let ok s = List.for_all (fun r -> r.failure = None) s.runs

let skip_rate (r : family_run) =
  if r.checked = 0 then 0.
  else float_of_int r.skipped /. float_of_int r.checked

(* [Check_skipped] cases used to drain into silent QCheck passes: a
   generator drifting into a precondition desert (capacity limit,
   sema-check misses) could "pass" a family while exercising nothing.
   Callers now get the per-family rate and a budget to enforce. *)
let skip_breaches ~max_skip_rate s =
  List.filter (fun r -> skip_rate r > max_skip_rate) s.runs

let corpus_config family prog =
  match family with
  | Roundtrip | Semantics | Absint -> Config.none
  | Efficacy | Static_dynamic ->
    Config.all_but_delay ~sensitive:(source_globals prog) ()

let run_family ?dir ~count ~seed family =
  let checked = ref 0 and skipped = ref 0 in
  let prop case =
    match check family case with
    | Pass -> incr checked; true
    | Skip _ ->
      incr checked;
      incr skipped;
      true
    | Fail _ -> incr checked; false
  in
  let cell =
    QCheck.Test.make_cell ~count ~name:(family_name family)
      (family_arb family) prop
  in
  let rand = Random.State.make [| seed; family_index family |] in
  let result = QCheck.Test.check_cell ~rand cell in
  let failure_of ?(shrink_steps = 0) case message =
    let source = Ast_gen.source_of_case case in
    let corpus_path =
      Option.map
        (fun dir ->
          Corpus.save ~dir
            { Corpus.property = family_name family;
              seed;
              config = corpus_config family case.Ast_gen.prog;
              message;
              source })
        dir
    in
    Some { message; shrink_steps; source; corpus_path }
  in
  let failure =
    match QCheck.TestResult.get_state result with
    | QCheck.TestResult.Success -> None
    | QCheck.TestResult.Failed { instances = cex :: _ } ->
      let case = cex.QCheck.TestResult.instance in
      let message =
        (* re-run the shrunk instance to recover the diagnostic *)
        match check family case with
        | Fail m -> m
        | Pass | Skip _ -> "shrunk counterexample no longer reproduces"
      in
      failure_of ~shrink_steps:cex.QCheck.TestResult.shrink_steps case message
    | QCheck.TestResult.Failed { instances = [] } ->
      Some
        { message = "property failed without a counterexample";
          shrink_steps = 0; source = ""; corpus_path = None }
    | QCheck.TestResult.Failed_other { msg } ->
      Some { message = msg; shrink_steps = 0; source = ""; corpus_path = None }
    | QCheck.TestResult.Error { instance; exn; _ } ->
      failure_of instance.QCheck.TestResult.instance
        ("property raised " ^ Printexc.to_string exn)
  in
  { family; checked = !checked; skipped = !skipped; failure }

(* Run [count] generated programs through each selected family. *)
let run ?dir ?(families = all_families) ~count ~seed () =
  let runs = List.map (run_family ?dir ~count ~seed) families in
  { seed; count; runs }

(* Re-run the property of a saved counterexample deterministically. *)
let replay (entry : Corpus.entry) : (verdict, string) result =
  match family_of_string entry.property with
  | None -> Error (Printf.sprintf "unknown property %S" entry.property)
  | Some family -> (
    match Minic.Parser.program entry.source with
    | exception e -> Error ("counterexample does not parse: " ^ Printexc.to_string e)
    | prog ->
      let shape =
        if has_marker prog then Ast_gen.Guarded else Ast_gen.Terminating
      in
      let case = { Ast_gen.shape; prog } in
      Ok (check family case))
