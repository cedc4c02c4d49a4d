(* The mutant catalog's kill matrix: every seeded defect in [Mutant.all]
   must be caught by at least one oracle. A killer is a named check that
   holds on the honest build and fails with its mutant armed; the match
   in [killers] is exhaustive, so a new mutant does not compile until it
   has one.

   Hot-path defects are source patches instead, in test/mutants/, and
   test/mutants/run.py shows each is killed. Here tier-1 only checks
   that the patch catalog has not rotted. *)

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

(* On a guard-loop window, the campaign with static and state-key
   pruning gives the same per-point verdicts as the unpruned oracle. *)
let pruned_matches_oracle () =
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
      static_prune = true;
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
       cfi_audit_clean (Resistor.Config.make [ Sigcfi ]) "sigcfi-sink") ]
  | Domains_checks ->
    [ ("domains audit clean",
       cfi_audit_clean (Resistor.Config.make [ Domains ]) "domains-check") ]
  | Absint_taint ->
    [ ("static pruning == oracle on the guard loop",
       pruned_matches_oracle) ]

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

(* --- the source-patch catalog ------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* How many times [needle] occurs in [hay]. *)
let occurrences hay needle =
  let n = String.length needle and count = ref 0 in
  let rec at i k = k = n || (hay.[i + k] = needle.[k] && at i (k + 1)) in
  for i = 0 to String.length hay - n do
    if at i 0 then incr count
  done;
  !count

(* One entry in run.py's format: [key: value] header lines ('#' lines
   are comments), then the old text after "@@ old" and the new text
   after "@@ new", each its lines joined by newlines. *)
type entry = { fields : (string * string) list; old : string; new_ : string }

let parse_entry path =
  let lines = String.split_on_char '\n' (read_file path) in
  let lines =
    match List.rev lines with "" :: rest -> List.rev rest | _ -> lines
  in
  let rec cut marker acc = function
    | [] -> Alcotest.failf "%s: no %S line" path marker
    | l :: rest when l = marker -> (List.rev acc, rest)
    | l :: rest -> cut marker (l :: acc) rest
  in
  let header, body = cut "@@ old" [] lines in
  let old, new_ = cut "@@ new" [] body in
  let field line =
    match String.index_opt line ':' with
    | _ when line = "" || line.[0] = '#' -> None
    | Some i ->
      Some
        ( String.sub line 0 i,
          String.trim (String.sub line (i + 1) (String.length line - i - 1)) )
    | None -> Alcotest.failf "%s: unexpected header line %S" path line
  in
  { fields = List.filter_map field header;
    old = String.concat "\n" old;
    new_ = String.concat "\n" new_ }

let test_catalog_applies () =
  let dir = Filename.concat (Filename.concat build_root "test") "mutants" in
  let names =
    List.sort compare
      (List.filter
         (fun f -> Filename.check_suffix f ".mutant")
         (Array.to_list (Sys.readdir dir)))
  in
  Alcotest.(check bool) "catalog has entries" true (names <> []);
  List.iter
    (fun name ->
      let e = parse_entry (Filename.concat dir name) in
      let one key =
        match List.filter (fun (k, _) -> k = key) e.fields with
        | [ (_, v) ] -> v
        | _ -> Alcotest.failf "%s: needs one %s: line" name key
      in
      let file = Filename.concat build_root (one "file") in
      if one "suite" = "" || not (List.mem_assoc "kills" e.fields) then
        Alcotest.failf "%s: names no suite or no killing test" name;
      if e.old = "" || e.old = e.new_ then
        Alcotest.failf "%s: the patch changes nothing" name;
      if not (Sys.file_exists file) then
        Alcotest.failf "%s: %s is not a dependency of the test" name
          (one "file");
      Alcotest.(check int)
        (Printf.sprintf "%s: old text occurs once in %s" name (one "file"))
        1
        (occurrences (read_file file) e.old))
    names

let test_with_restores () =
  let armed () = List.filter Mutant.is Mutant.all in
  Alcotest.(check int) "nothing armed by default" 0 (List.length (armed ()));
  Mutant.with_ (Some Sigcfi_checks) (fun () ->
      Alcotest.(check bool) "armed inside" true (Mutant.is Sigcfi_checks);
      (try Mutant.with_ (Some Absint_taint) (fun () -> raise Exit)
       with Exit -> ());
      Alcotest.(check bool) "restored after an exception" true
        (armed () = [ Mutant.Sigcfi_checks ]);
      Mutant.with_ None (fun () ->
          Alcotest.(check int) "None disarms" 0 (List.length (armed ()))));
  Alcotest.(check int) "restored on return" 0 (List.length (armed ()))

let () =
  Alcotest.run "mutant"
    [ ( "catalog",
        [ Alcotest.test_case "with_ restores the slot" `Quick test_with_restores;
          Alcotest.test_case "every mutant is killed" `Quick
            test_every_mutant_killed;
          Alcotest.test_case "source patches still apply" `Quick
            test_catalog_applies ] ) ]
