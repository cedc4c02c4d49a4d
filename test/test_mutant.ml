(* The mutant catalog's kill matrix: every seeded defect in [Mutant.all]
   must be caught by at least one oracle. A killer is a named check that
   holds on the honest build and fails with its mutant armed; the match
   in [killers] is exhaustive, so a new mutant does not compile until it
   has one. *)

let build_root = Filename.dirname (Filename.dirname Sys.executable_name)

(* --- checks ----------------------------------------------------------------- *)

(* The committed efficacy counterexample: the complemented re-check
   catches every 1/2-bit guard flip on it. *)
let efficacy_counterexample_defended () =
  let path =
    Filename.concat
      (Filename.concat build_root "corpus")
      "fuzz-efficacy-17f790fd.c"
  in
  match Gen.Corpus.load path with
  | Error m -> Alcotest.failf "%s: %s" path m
  | Ok e ->
    let prog = Minic.Parser.program e.Gen.Corpus.source in
    Gen.Fuzz.check Gen.Fuzz.Efficacy { Gen.Ast_gen.shape = Guarded; prog }
    = Gen.Fuzz.Pass

(* A CFI-defended guard loop draws no Error finding from its own audit. *)
let cfi_audit_clean config rule () =
  let compiled = Resistor.Driver.compile config Resistor.Firmware.guard_loop in
  let report = Analysis.Lint.run (Analysis.Lint.of_compiled compiled) in
  not
    (List.exists
       (fun (d : Analysis.Lint.diag) -> d.rule = rule)
       (Analysis.Lint.errors report))

(* The same byte value at two addresses makes two different keys. *)
let key_distinguishes_dirty_addresses () =
  let sram = 0x20000000 in
  let mem = Machine.Memory.create () in
  Machine.Memory.map mem ~addr:sram ~size:0x100;
  let cpu = Machine.Cpu.create ~sp:(sram + 0xF0) ~pc:sram () in
  let rig = Exhaust.State.seal ~mem ~cpu in
  let m = Exhaust.State.mark rig in
  Machine.Memory.write_u8_exn mem (sram + 0x30) 1;
  let ka = Exhaust.State.key rig in
  Exhaust.State.undo_to rig m;
  Machine.Memory.write_u8_exn mem (sram + 0x31) 1;
  not (String.equal ka (Exhaust.State.key rig))

(* On a guard-loop window, the campaign with [static] and state-key
   pruning gives the same per-point verdicts as the unpruned oracle. *)
let pruned_matches_oracle ~static () =
  let compiled =
    Resistor.Driver.compile Resistor.Config.none Resistor.Firmware.guard_loop
  in
  let spec =
    Exhaust.Campaign.spec_of_image ~name:"guard_loop"
      compiled.Resistor.Driver.image
  in
  let config =
    { (Exhaust.Campaign.default_config ()) with
      Exhaust.Campaign.max_trace = 96;
      settle_steps = Some 24;
      static_prune = static;
      keep_points = true }
  in
  let pruned = Exhaust.Campaign.run spec config in
  let oracle =
    Exhaust.Campaign.run spec
      { config with Exhaust.Campaign.prune = false; static_prune = false }
  in
  pruned.Exhaust.Campaign.verdicts = oracle.Exhaust.Campaign.verdicts

(* --- the matrix ------------------------------------------------------------- *)

let killers : Mutant.t -> (string * (unit -> bool)) list = function
  | Branches_complement ->
    [ ("committed efficacy counterexample defended",
       efficacy_counterexample_defended) ]
  | Sigcfi_checks ->
    [ ("sigcfi audit clean",
       cfi_audit_clean (Resistor.Config.only ~sigcfi:true ()) "sigcfi-sink") ]
  | Domains_checks ->
    [ ("domains audit clean",
       cfi_audit_clean (Resistor.Config.only ~domains:true ()) "domains-check") ]
  | Absint_taint ->
    [ ("static pruning == oracle on the guard loop",
       pruned_matches_oracle ~static:true) ]
  | State_key_byte ->
    [ ("key distinguishes dirty addresses", key_distinguishes_dirty_addresses);
      ("state pruning == oracle on the guard loop",
       pruned_matches_oracle ~static:false) ]

let test_every_mutant_killed () =
  List.iter
    (fun m ->
      List.iter
        (fun (name, holds) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s holds with no mutant" name)
            true
            (Mutant.with_ None holds);
          Alcotest.(check bool)
            (Printf.sprintf "%s kills %s" name (Mutant.name m))
            false
            (Mutant.with_ (Some m) holds))
        (killers m))
    Mutant.all

let test_with_restores () =
  let armed () = List.filter Mutant.is Mutant.all in
  Alcotest.(check int) "nothing armed by default" 0 (List.length (armed ()));
  Mutant.with_ (Some State_key_byte) (fun () ->
      Alcotest.(check bool) "armed inside" true (Mutant.is State_key_byte);
      (try Mutant.with_ (Some Absint_taint) (fun () -> raise Exit)
       with Exit -> ());
      Alcotest.(check bool) "restored after an exception" true
        (armed () = [ Mutant.State_key_byte ]);
      Mutant.with_ None (fun () ->
          Alcotest.(check int) "None disarms" 0 (List.length (armed ()))));
  Alcotest.(check int) "restored on return" 0 (List.length (armed ()))

let () =
  Alcotest.run "mutant"
    [ ( "catalog",
        [ Alcotest.test_case "with_ restores the slot" `Quick test_with_restores;
          Alcotest.test_case "every mutant is killed" `Quick
            test_every_mutant_killed ] ) ]
