(* The abstract fault-flow interpreter, tested three ways:

   - lattice laws for the value-set domain (join commutative,
     idempotent, associative; widening monotone and terminating), the
     algebra every fixpoint argument leans on;
   - totality of the per-instruction effect tables: all 65,536 Thumb
     decodings map to an Effects.t without raising, and the tables
     agree with spot-checked concrete semantics;
   - soundness of the static pre-pruner against the dynamic engine: on
     the guard-loop firmware and on generated programs, a campaign with
     [static_prune] produces bit-identical verdict tables and per-point
     verdicts to the unpruned oracle — and the sabotaged transfer
     function (taint never propagates) is caught by the same
     differential. *)

let vset_gen =
  QCheck.Gen.(
    frequency
      [ (1, return Absint.Dom.top);
        (8,
         map Absint.Dom.of_list
           (list_size (int_bound 11) (int_bound 0xFFFF))) ])

let arb_vset =
  QCheck.make vset_gen ~print:(fun v -> Fmt.str "%a" Absint.Dom.pp v)

let prop_join_commutative =
  QCheck.Test.make ~name:"join commutative" ~count:200
    (QCheck.pair arb_vset arb_vset) (fun (a, b) ->
      Absint.Dom.equal (Absint.Dom.join a b) (Absint.Dom.join b a))

let prop_join_idempotent =
  QCheck.Test.make ~name:"join idempotent" ~count:200 arb_vset (fun a ->
      Absint.Dom.equal (Absint.Dom.join a a) a)

let prop_join_associative =
  QCheck.Test.make ~name:"join associative" ~count:200
    (QCheck.triple arb_vset arb_vset arb_vset) (fun (a, b, c) ->
      Absint.Dom.equal
        (Absint.Dom.join a (Absint.Dom.join b c))
        (Absint.Dom.join (Absint.Dom.join a b) c))

let prop_join_upper_bound =
  QCheck.Test.make ~name:"join is an upper bound" ~count:200
    (QCheck.pair arb_vset arb_vset) (fun (a, b) ->
      let j = Absint.Dom.join a b in
      Absint.Dom.subset a j && Absint.Dom.subset b j)

(* Widening termination: any chain a0, widen a0 b1, widen a1 b2, ...
   stabilises — each step either keeps the accumulator or grows it, and
   it can grow at most [max_card] times before collapsing to Top. *)
let prop_widening_terminates =
  QCheck.Test.make ~name:"widening stabilises on any chain" ~count:100
    (QCheck.list_of_size (QCheck.Gen.int_range 1 40) arb_vset) (fun chain ->
      let steps = ref 0 in
      let acc =
        List.fold_left
          (fun acc b ->
            let acc' = Absint.Dom.widen acc b in
            if not (Absint.Dom.equal acc acc') then incr steps;
            acc')
          (Absint.Dom.of_list []) chain
      in
      (* every element is below the stabilised accumulator, and the
         accumulator grew a bounded number of times *)
      List.for_all (fun b -> Absint.Dom.subset b acc) chain
      && !steps <= 9)

let prop_lift2_sound =
  QCheck.Test.make ~name:"lift2 over-approximates pointwise application"
    ~count:200
    (QCheck.pair
       (QCheck.list_of_size (QCheck.Gen.int_bound 5)
          (QCheck.int_bound 0xFFFF))
       (QCheck.list_of_size (QCheck.Gen.int_bound 5)
          (QCheck.int_bound 0xFFFF)))
    (fun (xs, ys) ->
      let a = Absint.Dom.of_list xs and b = Absint.Dom.of_list ys in
      let r = Absint.Dom.lift2 (fun x y -> (x + y) land 0xFFFFFFFF) a b in
      List.for_all
        (fun x ->
          List.for_all
            (fun y -> Absint.Dom.mem ((x + y) land 0xFFFFFFFF) r)
            ys)
        xs)

(* --- effects: total over the decode table -------------------------------- *)

let test_effects_total () =
  for w = 0 to 0xFFFF do
    let e = Absint.Effects.of_instr Thumb.Decode.table.(w) in
    (* register masks stay in the 16-bit register space *)
    Alcotest.(check bool)
      (Printf.sprintf "word %04x: masks well-formed" w)
      true
      (e.Absint.Effects.reads land lnot 0xFFFF = 0
      && e.writes land lnot 0xFFFF = 0
      && e.flag_reads land lnot 0xF = 0
      && e.flag_writes land lnot 0xF = 0)
  done

let test_effects_spot_checks () =
  let e word = Absint.Effects.of_instr Thumb.Decode.table.(word) in
  (* movs r0, #1: no reads, writes r0, NZ *)
  let m = e 0x2001 in
  Alcotest.(check int) "movs reads nothing" 0 m.Absint.Effects.reads;
  Alcotest.(check int) "movs writes r0" 1 m.writes;
  Alcotest.(check int) "movs writes NZ" 0xC m.flag_writes;
  (* beq: reads Z, Cond *)
  let b = e 0xD000 in
  Alcotest.(check int) "beq reads Z" 4 b.Absint.Effects.flag_reads;
  Alcotest.(check bool) "beq is conditional" true
    (match b.ctrl with Absint.Effects.Cond Thumb.Instr.EQ -> true | _ -> false);
  (* bkpt: diverts, reads nothing *)
  let k = e 0xBE00 in
  Alcotest.(check bool) "bkpt diverts" true
    (k.Absint.Effects.ctrl = Absint.Effects.Diverts);
  (* adcs r1, r2 reads C *)
  let a = e 0x4151 in
  Alcotest.(check int) "adc reads C" 2 a.Absint.Effects.flag_reads;
  (* str r0, [r1, r2]: store reading all three *)
  let s = e 0x5088 in
  Alcotest.(check bool) "str is a store" true
    (s.Absint.Effects.mem = Absint.Effects.Store);
  Alcotest.(check int) "str reads r0,r1,r2" 0b111 s.reads

(* --- the static pre-pruner vs the dynamic engine -------------------------- *)

let static_equals_oracle ?pool spec config label =
  let config =
    { config with
      Exhaust.Campaign.prune = true;
      static_prune = true;
      keep_points = true }
  in
  let static = Exhaust.Campaign.run ?pool spec config in
  let oracle =
    Exhaust.Campaign.run spec
      { config with Exhaust.Campaign.prune = false; static_prune = false }
  in
  Alcotest.(check bool)
    (label ^ ": totals bit-identical to the unpruned oracle")
    true
    (static.Exhaust.Campaign.totals = oracle.Exhaust.Campaign.totals);
  Alcotest.(check bool)
    (label ^ ": rows bit-identical")
    true
    (static.Exhaust.Campaign.rows = oracle.Exhaust.Campaign.rows);
  Alcotest.(check bool)
    (label ^ ": per-point verdicts bit-identical")
    true
    (static.Exhaust.Campaign.verdicts = oracle.Exhaust.Campaign.verdicts);
  Alcotest.(check int)
    (label ^ ": counters partition the points")
    static.Exhaust.Campaign.points
    (static.faulted + static.pruned + static.executed + static.static_pruned);
  static

let guard_loop_spec defenses =
  let compiled = Resistor.Driver.compile defenses Resistor.Firmware.guard_loop in
  Exhaust.Campaign.spec_of_image ~name:"guard_loop"
    compiled.Resistor.Driver.image

let guard_loop_config () =
  { (Exhaust.Campaign.default_config ()) with
    Exhaust.Campaign.max_trace = 256;
    settle_steps = Some 64 }

let test_guard_loop_static_floor () =
  let spec = guard_loop_spec Resistor.Config.none in
  let r = static_equals_oracle spec (guard_loop_config ()) "guard_loop" in
  Alcotest.(check bool)
    (Printf.sprintf "static_pruned %d > 0" r.Exhaust.Campaign.static_pruned)
    true
    (r.Exhaust.Campaign.static_pruned > 0)

let test_guard_loop_static_defended () =
  let spec =
    guard_loop_spec
      (Resistor.Config.only ~branches:true ~loops:true ~integrity:true
         ~sensitive:[ "a" ] ())
  in
  let r = static_equals_oracle spec (guard_loop_config ()) "guard_loop/defended" in
  Alcotest.(check bool)
    (Printf.sprintf "static_pruned %d > 0" r.Exhaust.Campaign.static_pruned)
    true
    (r.Exhaust.Campaign.static_pruned > 0)

let test_guard_loop_static_jobs_parity () =
  let spec = guard_loop_spec Resistor.Config.none in
  let config =
    { (guard_loop_config ()) with
      Exhaust.Campaign.static_prune = true;
      keep_points = true }
  in
  let seq = Exhaust.Campaign.run spec config in
  let par =
    Runtime.Pool.with_pool ~jobs:4 (fun pool ->
        Exhaust.Campaign.run ~pool spec config)
  in
  Alcotest.(check bool) "rows bit-identical at jobs 4" true
    (seq.Exhaust.Campaign.rows = par.Exhaust.Campaign.rows);
  Alcotest.(check bool) "verdicts bit-identical at jobs 4" true
    (seq.Exhaust.Campaign.verdicts = par.Exhaust.Campaign.verdicts);
  Alcotest.(check int) "static_pruned identical at jobs 4"
    seq.Exhaust.Campaign.static_pruned par.Exhaust.Campaign.static_pruned

(* A terminating baseline exercises the rejoin path of the prover (the
   end verdict is the baseline end's own classification). *)
let test_terminating_static_sound () =
  let case = Glitch_emu.Testcase.conditional_branch Thumb.Instr.EQ in
  let spec = Exhaust.Campaign.spec_of_case case in
  let config =
    { (Exhaust.Campaign.default_config ()) with
      Exhaust.Campaign.max_trace = 64 }
  in
  ignore (static_equals_oracle spec config "beq case")

(* Soundness on generated firmware: whatever `lib/gen` produces, no
   point the interpreter proves may disagree with the oracle that
   executes every continuation. *)
let prop_static_sound_on_generated =
  QCheck.Test.make ~name:"static pre-pruner sound on generated firmware"
    ~count:8 Gen.Ast_gen.arb_any (fun case ->
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
            settle_steps = Some 24;
            prune = true;
            static_prune = true;
            keep_points = true }
        in
        let static = Exhaust.Campaign.run spec config in
        let oracle =
          Exhaust.Campaign.run spec
            { config with Exhaust.Campaign.prune = false; static_prune = false }
        in
        static.Exhaust.Campaign.totals = oracle.Exhaust.Campaign.totals
        && static.rows = oracle.rows
        && static.verdicts = oracle.verdicts
        && static.faulted = oracle.faulted)

(* The negative control: with the Absint_taint mutant armed (taint
   never propagates), the same differential must trip — otherwise the
   soundness gate is vacuous. *)
let test_sabotage_trips () =
  let spec = guard_loop_spec Resistor.Config.none in
  let config =
    { (guard_loop_config ()) with
      Exhaust.Campaign.static_prune = true;
      keep_points = true }
  in
  let honest = Exhaust.Campaign.run spec config in
  let sabotaged =
    Mutant.with_ (Some Absint_taint) (fun () -> Exhaust.Campaign.run spec config)
  in
  Alcotest.(check bool) "sabotage proves more points" true
    (sabotaged.Exhaust.Campaign.static_pruned
    > honest.Exhaust.Campaign.static_pruned);
  Alcotest.(check bool) "sabotaged verdicts diverge from the honest run" false
    (sabotaged.Exhaust.Campaign.verdicts = honest.Exhaust.Campaign.verdicts)

(* --- prover ---------------------------------------------------------------- *)

let prove defenses =
  let compiled = Resistor.Driver.compile defenses Resistor.Firmware.guard_loop in
  Absint.Prove.run ~config:compiled.Resistor.Driver.config
    ~reports:compiled.Resistor.Driver.reports
    ~modul:compiled.Resistor.Driver.modul compiled.Resistor.Driver.image

let test_prove_undefended_escapes () =
  let r = prove Resistor.Config.none in
  Alcotest.(check bool) "at least one escaping guard" true (r.escapes >= 1);
  Json_check.roundtrip "prove report" (Absint.Prove.to_json r);
  let errs = Absint.Prove.errors r in
  Alcotest.(check bool) "escapes surface as errors" true (errs <> []);
  List.iter
    (fun (d : Analysis.Lint.diag) ->
      Alcotest.(check string) "error rule" "fault-flow-escape" d.rule;
      Alcotest.(check string) "user code, not runtime support" "main" d.func)
    errs

let test_prove_defended_clean () =
  let r = prove (Resistor.Config.all_but_delay ~sensitive:[ "a" ] ()) in
  Alcotest.(check (list string)) "no errors on the defended build" []
    (List.map
       (fun (d : Analysis.Lint.diag) -> d.message)
       (Absint.Prove.errors r));
  Alcotest.(check bool) "at least one guard semantically proven" true
    (r.proven >= 1);
  Alcotest.(check int) "every reached guard verdicted" r.guards_reached
    (r.proven + r.escapes + r.unproven)

(* refine_lint re-grades structural findings by the semantic verdict;
   the two interesting rewrites are pinned on synthetic diags so the
   test does not depend on finding a firmware that exhibits them. *)
let test_refine_lint_regrades () =
  let diag rule severity addr message =
    { Analysis.Lint.rule; severity; func = "main"; addr; message }
  in
  let structural report diags = { report with Analysis.Lint.diags } in
  let base = prove Resistor.Config.none in
  let with_diags ds = { base with Absint.Prove.diags = ds } in
  let compiled =
    Resistor.Driver.compile Resistor.Config.none Resistor.Firmware.guard_loop
  in
  let lint =
    Analysis.Lint.run (Analysis.Lint.of_compiled compiled)
  in
  (* downgrade: structural Error + semantic proof -> Info *)
  let refined =
    Absint.Prove.refine_lint
      (structural lint
         [ diag "guard-flippable" Analysis.Lint.Error 0x100 "no duplicate" ])
      (with_diags
         [ diag "fault-flow-proven" Analysis.Lint.Info 0x100 "proven" ])
  in
  let guard =
    List.find
      (fun (d : Analysis.Lint.diag) -> d.rule = "guard-flippable")
      refined
  in
  Alcotest.(check bool) "proven guard downgraded to Info" true
    (guard.severity = Analysis.Lint.Info);
  (* upgrade: structural Info + deterministic semantic escape -> Error *)
  let refined =
    Absint.Prove.refine_lint
      (structural lint
         [ diag "guard-flippable" Analysis.Lint.Info 0x100 "re-checked" ])
      (with_diags
         [ diag "fault-flow-escape" Analysis.Lint.Error 0x100 "escape" ])
  in
  let guard =
    List.find
      (fun (d : Analysis.Lint.diag) -> d.rule = "guard-flippable")
      refined
  in
  Alcotest.(check bool) "escaping guard upgraded to Error" true
    (guard.severity = Analysis.Lint.Error);
  (* a speculative (Warning) escape must not upgrade, and other rules
     pass through untouched *)
  let refined =
    Absint.Prove.refine_lint
      (structural lint
         [ diag "guard-flippable" Analysis.Lint.Info 0x100 "re-checked";
           diag "cfg-unreachable" Analysis.Lint.Info 0x200 "dead code" ])
      (with_diags
         [ diag "fault-flow-escape" Analysis.Lint.Warning 0x100 "maybe" ])
  in
  List.iter
    (fun (d : Analysis.Lint.diag) ->
      if d.rule = "guard-flippable" || d.rule = "cfg-unreachable" then
        Alcotest.(check bool) (d.rule ^ " untouched") true
          (d.severity = Analysis.Lint.Info))
    refined

let () =
  Alcotest.run "absint"
    [ ( "lattice",
        [ Qseed.to_alcotest prop_join_commutative;
          Qseed.to_alcotest prop_join_idempotent;
          Qseed.to_alcotest prop_join_associative;
          Qseed.to_alcotest prop_join_upper_bound;
          Qseed.to_alcotest prop_widening_terminates;
          Qseed.to_alcotest prop_lift2_sound ] );
      ( "effects",
        [ Alcotest.test_case "total over all 65,536 decodings" `Quick
            test_effects_total;
          Alcotest.test_case "spot checks against concrete semantics" `Quick
            test_effects_spot_checks ] );
      ( "soundness",
        [ Alcotest.test_case "guard-loop: static == oracle, nonzero floor"
            `Quick test_guard_loop_static_floor;
          Alcotest.test_case "defended guard-loop: static == oracle" `Quick
            test_guard_loop_static_defended;
          Alcotest.test_case "static counters stable at jobs 4" `Quick
            test_guard_loop_static_jobs_parity;
          Alcotest.test_case "terminating baseline rejoin" `Quick
            test_terminating_static_sound;
          Qseed.to_alcotest prop_static_sound_on_generated;
          Alcotest.test_case "sabotaged transfer function is caught" `Quick
            test_sabotage_trips ] );
      ( "prove",
        [ Alcotest.test_case "undefended guard loop: escape witnesses" `Quick
            test_prove_undefended_escapes;
          Alcotest.test_case "defended guard loop: semantically proven" `Quick
            test_prove_defended_clean;
          Alcotest.test_case "refine_lint re-grades by semantic verdict"
            `Quick test_refine_lint_regrades ] ) ]
