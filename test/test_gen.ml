(* The randomized differential-testing harness, tested the boring way:
   fixed corpus entries and fixed seeds. The negative controls that
   justify trusting the green runs are the test/mutants/ entries these
   tests kill. *)

let marker = Resistor.Firmware.attack_marker_global

(* --- corpus entries round-trip through disk ------------------------------ *)

let sample_entry =
  { Gen.Corpus.property = "efficacy";
    seed = 1234;
    config =
      Resistor.Config.all_but_delay ~sensitive:[ "g0"; marker ] ();
    message = "addr 0x8000092 mask 0x0100: silent\nsuccess";
    source =
      Printf.sprintf
        "volatile unsigned %s = 0;\n\nint main() {\n  return 0;\n}\n" marker }

let test_corpus_roundtrip () =
  let dir = Filename.temp_file "corpus" "" in
  Sys.remove dir;
  let path = Gen.Corpus.save ~dir sample_entry in
  match Gen.Corpus.load path with
  | Error m -> Alcotest.failf "load: %s" m
  | Ok e ->
    Alcotest.(check string) "property" "efficacy" e.Gen.Corpus.property;
    Alcotest.(check int) "seed" 1234 e.seed;
    Alcotest.(check string) "defenses" "All\\Delay"
      (Resistor.Config.name e.config);
    Alcotest.(check bool) "same config" true (e.config = sample_entry.config);
    (* the message is flattened to one line so the header stays parseable *)
    Alcotest.(check bool) "message one line"
      false
      (String.contains e.message '\n');
    (* the saved file must itself be valid Mini-C: metadata is comments *)
    (match Minic.Parser.program e.source with
    | _ -> ()
    | exception _ -> Alcotest.fail "saved corpus file does not parse as Mini-C")

(* A header naming a defense the registry does not know is an error,
   not a config with that defense silently dropped. *)
let test_unknown_defense_rejected () =
  let path = Filename.temp_file "corpus" ".c" in
  let oc = open_out path in
  output_string oc
    "// property: efficacy\n// defenses: branchs,loops\nint main() { return 0; }\n";
  close_out oc;
  let loaded = Gen.Corpus.load path in
  Sys.remove path;
  match loaded with
  | Error m ->
    Alcotest.(check string) "error" "unknown defense: \"branchs\"" m
  | Ok e ->
    Alcotest.failf "loaded as %s" (Resistor.Config.name e.Gen.Corpus.config)

(* --- the committed counterexamples ----------------------------------------- *)

(* [corpus/] holds the shrunk program on which a deliberately broken
   Branches/Loops pass (complemented re-check disabled) lets a 1-bit
   guard flip set the attack marker without tripping the detector. The
   honest pass must defend it; the branches-complement entry of
   test/mutants/ shows the broken one does not. *)
(* Everything lives relative to _build/default/test, whatever the cwd. *)
let build_root = Filename.dirname (Filename.dirname Sys.executable_name)

let committed_counterexample =
  Filename.concat
    (Filename.concat build_root "corpus")
    "fuzz-efficacy-17f790fd.c"

let load_committed () =
  match Gen.Corpus.load committed_counterexample with
  | Ok e -> e
  | Error m -> Alcotest.failf "%s: %s" committed_counterexample m

(* Both committed entries name enums,returns,integrity,branches,loops:
   the paper's All\Delay over their sensitive globals. *)
let test_committed_configs () =
  List.iter
    (fun (file, sensitive) ->
      let path = Filename.concat (Filename.concat build_root "corpus") file in
      match Gen.Corpus.load path with
      | Error m -> Alcotest.failf "%s: %s" path m
      | Ok e ->
        Alcotest.(check bool) file true
          (e.Gen.Corpus.config
          = Resistor.Config.all_but_delay ~sensitive ()))
    [ ("fuzz-efficacy-17f790fd.c", [ "attack_success" ]);
      ("fuzz-efficacy-2ee70427.c", [ "g5"; "guard13"; "attack_success" ]) ]

let test_fixed_pass_defends () =
  let e = load_committed () in
  match Gen.Fuzz.replay e with
  | Error m -> Alcotest.failf "replay: %s" m
  | Ok Gen.Fuzz.Pass -> ()
  | Ok (Gen.Fuzz.Fail m) ->
    Alcotest.failf "healthy Branches/Loops passes still leak: %s" m
  | Ok (Gen.Fuzz.Skip m) -> Alcotest.failf "precondition lost: %s" m

(* The 500-program acceptance run found a genuine single-glitch escape
   in the un-sabotaged defenses: the guard conditional word corrupts
   into [str rX, [sp, #imm]] aimed at the very slot the complemented
   re-check reads, so one fault both skips the primary test and forges
   the value the re-check validates. Fixed by pairing every reused
   operand with a complemented shadow captured at its definition (and
   keeping the shadow glued to the load when the integrity pass splits
   the block). The committed counterexample must now be defended under
   both swept configurations. *)
let test_spilled_slot_clobber_defended () =
  let path =
    Filename.concat
      (Filename.concat build_root "corpus")
      "fuzz-efficacy-2ee70427.c"
  in
  match Gen.Corpus.load path with
  | Error m -> Alcotest.failf "%s: %s" path m
  | Ok e -> (
    match Gen.Fuzz.replay e with
    | Error m -> Alcotest.failf "replay: %s" m
    | Ok Gen.Fuzz.Pass -> ()
    | Ok (Gen.Fuzz.Fail m) ->
      Alcotest.failf "spilled-slot clobber leaks again: %s" m
    | Ok (Gen.Fuzz.Skip m) -> Alcotest.failf "precondition lost: %s" m)

(* --- regressions the fuzzer flushed out ---------------------------------- *)

(* Negated literals: the parser folds [-99] to [Int (-99)], so the
   pretty-printer round trip must agree on programs that spell them
   either way. *)
let test_negative_literal_roundtrip () =
  let src = "int f() { return -99; }\nint main() { return f() + -1; }\n" in
  let prog = Minic.Parser.program src in
  let again = Minic.Parser.program (Minic.Pretty.to_string prog) in
  Alcotest.(check bool) "round trip" true (Minic.Ast.equal_program prog again)

(* Do-while: the back edge targets the body, not the conditional, so
   the original back-edge-target detector missed every do-while exit
   guard. *)
let test_do_while_loop_guard () =
  let src =
    "int main() {\n  int i;\n  i = 0;\n  do {\n    i = i + 1;\n  } while (i != \
     3);\n  return i;\n}\n"
  in
  let m, _ =
    Resistor.Driver.compile_modul Resistor.Config.none src
  in
  let main =
    List.find (fun (f : Ir.func) -> f.Ir.fname = "main") m.Ir.funcs
  in
  Alcotest.(check bool)
    "do-while exit guard found" true
    (Resistor.Loops.guard_edges main <> [])

(* Literal pools and long branches: heavy instrumentation outgrows both
   the 1020-byte [ldr pc] reach and the ±1024-halfword [b] reach;
   codegen must relax rather than reject. A straight-line function with
   hundreds of distinct word constants forces multiple pool islands. *)
let test_pool_islands_and_relaxation () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "volatile unsigned sink = 0;\nint main() {\n";
  for i = 0 to 299 do
    Buffer.add_string buf
      (Printf.sprintf "  sink = %d;\n" (0x10000 + (i * 7)))
  done;
  (* a loop whose body sits past the branch range without relaxation *)
  Buffer.add_string buf
    "  int i;\n  i = 0;\n  while (i < 2) {\n    i = i + 1;\n  }\n";
  Buffer.add_string buf "  return i;\n}\n";
  let c = Resistor.Driver.compile Resistor.Config.none (Buffer.contents buf) in
  let watch = [ "sink" ] in
  match Gen.Oracle.run_interp ~watch c.Resistor.Driver.modul with
  | Error m -> Alcotest.failf "interp: %s" m
  | Ok interp ->
    let arch =
      Gen.Oracle.run_board ~max_cycles:4_000_000 c.Resistor.Driver.modul
        c.Resistor.Driver.image
    in
    (match arch.Gen.Oracle.stop with
    | Some (Machine.Exec.Breakpoint _) -> ()
    | s ->
      Alcotest.failf "board stop: %s"
        (match s with None -> "timeout" | Some _ -> "abnormal"));
    Alcotest.(check (option int)) "exit code" (Some interp.Gen.Oracle.ret)
      arch.Gen.Oracle.exit_code

(* --- interpreter observer ------------------------------------------------- *)

let test_observer_trace () =
  let src =
    "volatile unsigned out = 0;\n\
     int main() {\n\
    \  __trigger_high();\n\
    \  out = 7;\n\
    \  out = out + 1;\n\
    \  __trigger_low();\n\
    \  return 0;\n\
     }\n"
  in
  let c = Resistor.Driver.compile Resistor.Config.none src in
  match Gen.Oracle.run_interp ~watch:[ "out" ] c.Resistor.Driver.modul with
  | Error m -> Alcotest.failf "interp: %s" m
  | Ok r ->
    Alcotest.(check int) "one rising edge" 1 r.Gen.Oracle.edges;
    let expected =
      [ Gen.Oracle.Tcall "__trigger_high";
        Gen.Oracle.Vstore ("out", 7);
        Gen.Oracle.Vload ("out", 7);
        Gen.Oracle.Vstore ("out", 8);
        Gen.Oracle.Tcall "__trigger_low" ]
    in
    Alcotest.(check (list string))
      "volatile trace"
      (List.map Gen.Oracle.obs_event_to_string expected)
      (List.map Gen.Oracle.obs_event_to_string r.Gen.Oracle.trace)

(* --- bounded fuzz smoke --------------------------------------------------- *)

(* One fixed-seed roundtrip batch; the full four-family sweep runs in CI
   through [glitchctl fuzz]. *)
let test_fuzz_smoke () =
  let summary =
    Gen.Fuzz.run ~families:[ Gen.Fuzz.Roundtrip ] ~count:50 ~seed:2024 ()
  in
  Alcotest.(check bool) "roundtrip family green" true (Gen.Fuzz.ok summary);
  match summary.Gen.Fuzz.runs with
  | [ r ] -> Alcotest.(check int) "all 50 checked" 50 r.Gen.Fuzz.checked
  | _ -> Alcotest.fail "expected exactly one family run"

(* The efficacy family defends generated guarded programs; the first
   one at this seed leaks under the branches-complement entry of
   test/mutants/, so the family is shown able to fail. *)
let test_fuzz_efficacy () =
  let summary =
    Gen.Fuzz.run ~families:[ Gen.Fuzz.Efficacy ] ~count:3 ~seed:42 ()
  in
  Alcotest.(check bool) "efficacy family green" true (Gen.Fuzz.ok summary)

(* --- skip accounting ------------------------------------------------------- *)

(* A program past the 255-slot frame budget is a precondition miss, not
   a pass: the semantics check must answer [Skip] (with the capacity
   diagnostic), never [Pass], so the skip counters see it. *)
let test_capacity_limit_skips () =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf "int main() {\n";
  for i = 0 to 299 do
    Buffer.add_string buf (Printf.sprintf "  int x%d;\n" i)
  done;
  for i = 0 to 299 do
    Buffer.add_string buf (Printf.sprintf "  x%d = %d;\n" i i)
  done;
  Buffer.add_string buf "  return x299;\n}\n";
  let prog = Minic.Parser.program (Buffer.contents buf) in
  let case = { Gen.Ast_gen.shape = Gen.Ast_gen.Terminating; prog } in
  match Gen.Fuzz.check Gen.Fuzz.Semantics case with
  | Gen.Fuzz.Skip m ->
    Alcotest.(check bool)
      ("capacity diagnostic in: " ^ m)
      true
      (Gen.Fuzz.capacity_message m)
  | Gen.Fuzz.Pass -> Alcotest.fail "over-capacity program silently passed"
  | Gen.Fuzz.Fail m -> Alcotest.failf "capacity miss reported as failure: %s" m

(* The rate arithmetic and the breach filter behind --max-skip-rate. *)
let test_skip_rate_budget () =
  let run family checked skipped =
    { Gen.Fuzz.family; checked; skipped; failure = None }
  in
  let quiet = run Gen.Fuzz.Roundtrip 100 2 in
  let desert = run Gen.Fuzz.Semantics 100 80 in
  let empty = run Gen.Fuzz.Efficacy 0 0 in
  let summary =
    { Gen.Fuzz.seed = 0; count = 100; runs = [ quiet; desert; empty ] }
  in
  Alcotest.(check (float 1e-9)) "2% skip" 0.02 (Gen.Fuzz.skip_rate quiet);
  Alcotest.(check (float 1e-9)) "80% skip" 0.8 (Gen.Fuzz.skip_rate desert);
  Alcotest.(check (float 1e-9)) "empty run skips nothing" 0.
    (Gen.Fuzz.skip_rate empty);
  let breached max_skip_rate =
    Gen.Fuzz.skip_breaches ~max_skip_rate summary
    |> List.map (fun (r : Gen.Fuzz.family_run) -> Gen.Fuzz.family_name r.family)
  in
  Alcotest.(check (list string)) "half budget" [ "semantics" ] (breached 0.5);
  Alcotest.(check (list string)) "tight budget" [ "roundtrip"; "semantics" ]
    (breached 0.01);
  Alcotest.(check (list string)) "loose budget" [] (breached 0.9)

(* --- glitchctl exit-code matrix ------------------------------------------- *)

(* The documented contract: 0 on success, 2 on invalid input, 3 on
   findings — uniformly across subcommands, fuzz included. *)

let glitchctl =
  Filename.concat (Filename.concat build_root "bin") "glitchctl.exe"

let write_tmp suffix contents =
  let path = Filename.temp_file "glitchctl_test" suffix in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  path

let guard_loop_src =
  Filename.concat
    (Filename.concat (Filename.concat build_root "examples") "firmware")
    "guard_loop.c"

let exec args =
  Sys.command
    (Filename.quote_command glitchctl args ~stdout:Filename.null
       ~stderr:Filename.null)

let test_exit_codes () =
  if not (Sys.file_exists glitchctl) then
    Alcotest.failf "missing binary %s" glitchctl;
  let good =
    write_tmp ".c" "int main() { return 0; }\n"
  in
  let guarded =
    write_tmp ".c"
      (Printf.sprintf
         "volatile unsigned %s = 0;\nvolatile unsigned pin = 0;\n\n\
          int main() {\n  __trigger_high();\n  while (pin != 1) {\n  }\n  %s \
          = 170;\n  return 0;\n}\n"
         marker marker)
  in
  let bad = write_tmp ".c" "int main( {\n" in
  (* parses, but codegen passes at most four arguments in registers *)
  let args5 =
    write_tmp ".c"
      "int f(int a, int b, int c, int d, int e) { return a + e; }\n\
       int main() { return f(1, 2, 3, 4, 5); }\n"
  in
  let bad_property =
    write_tmp ".c" "// property: bogus\nint main() { return 0; }\n"
  in
  (* hostile headers on an otherwise passing roundtrip entry *)
  let entry header =
    write_tmp ".c"
      ("// property: roundtrip\n" ^ header ^ "\nint main() { return 0; }\n")
  in
  let checks =
    [ ("compile ok", [ "compile"; good ], 0);
      ("compile parse error", [ "compile"; bad ], 2);
      (* every subcommand that reads a source shares one error path *)
      ("attack parse error", [ "attack"; bad ], 2);
      ("attack codegen error", [ "attack"; args5 ], 2);
      ("lint codegen error", [ "lint"; args5 ], 2);
      (* --jobs is bounded on both sides for every subcommand *)
      ("emulate jobs 0", [ "emulate"; "beq"; "--jobs"; "0" ], 2);
      ("emulate jobs 1000", [ "emulate"; "beq"; "--jobs"; "1000" ], 2);
      ("lint clean", [ "lint"; good ], 0);
      ( "lint unguarded loop",
        [ "lint"; guarded; "--defenses=none" ],
        3 );
      ( "lint defended",
        [ "lint"; guarded; "--defenses=all-but-delay" ],
        0 );
      (* unknown defense sets are usage errors (2), not cmdliner's
         124 — and the CFI tokens must parse *)
      ("lint unknown defense", [ "lint"; good; "--defenses=bogus" ], 2);
      ("attack unknown defense", [ "attack"; good; "--defenses=bogus" ], 2);
      ("lint cfi token", [ "lint"; good; "--defenses=cfi" ], 0);
      ("lint all-cfi token", [ "lint"; guarded; "--defenses=all-cfi" ], 0);
      (* CFCSS alone leaves the loop guard direction-flippable *)
      ("lint cfcss token", [ "lint"; guarded; "--defenses=cfcss" ], 3);
      ("lint --cfcss is gone", [ "lint"; good; "--cfcss" ], 2);
      ( "lint --mutant is gone",
        [ "lint"; good; "--mutant"; "sigcfi-checks" ],
        2 );
      ( "fuzz skip-rate breach",
        [ "fuzz"; "--count"; "5"; "--seed"; "11"; "--properties"; "roundtrip";
          "--max-skip-rate=-1";
          "--corpus"; Filename.get_temp_dir_name () ],
        3 );
      ( "fuzz roundtrip batch",
        [ "fuzz"; "--count"; "5"; "--seed"; "11"; "--properties"; "roundtrip";
          "--corpus"; Filename.get_temp_dir_name () ],
        0 );
      ( "fuzz unknown property",
        [ "fuzz"; "--properties"; "nonsense" ],
        2 );
      ("fuzz zero count", [ "fuzz"; "--count"; "0" ], 2);
      ( "fuzz --mutant is gone",
        [ "fuzz"; "--mutant"; "branches-complement" ],
        2 );
      (* a defect cannot be armed at run time, so an entry found under
         one must not replay as a pass against the honest build *)
      ( "fuzz replay mutant header",
        [ "fuzz"; "--replay"; entry "// mutant: branches-complement" ],
        2 );
      ( "fuzz replay mutant none header",
        [ "fuzz"; "--replay"; entry "// mutant: none" ],
        0 );
      ( "fuzz replay leftover sabotage header",
        [ "fuzz"; "--replay"; entry "// sabotage: yes" ],
        2 );
      ( "fuzz replay malformed seed",
        [ "fuzz"; "--replay"; entry "// seed: 12abc" ],
        2 );
      ( "fuzz replay unknown property",
        [ "fuzz"; "--replay"; bad_property ],
        2 );
      ( "fuzz replay committed counterexample",
        [ "fuzz"; "--replay"; committed_counterexample ],
        0 ) ]
  in
  List.iter
    (fun (name, args, expected) ->
      Alcotest.(check int) name expected (exec args))
    checks

(* --json output must stay JSON whatever the input file is called: a
   quote and a non-ASCII letter in the name once came out as OCaml
   escapes ("g\195\164rd\"loop.c") that JSON parsers reject. *)
let test_json_escapes_file_names () =
  let name = "g\xc3\xa4rd\"loop.c" in
  let dir = Filename.temp_file "glitchctl_json" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let file = Filename.concat dir name in
  let ic = open_in_bin guard_loop_src in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin file in
  output_string oc text;
  close_out oc;
  let json_of args =
    let out = Filename.concat dir "out.json" in
    ignore
      (Sys.command
         (Filename.quote_command glitchctl args ~stdout:out
            ~stderr:Filename.null));
    let ic = open_in_bin out in
    let s = String.trim (really_input_string ic (in_channel_length ic)) in
    close_in ic;
    match Json.of_string s with
    | Ok j -> j
    | Error e -> Alcotest.failf "%s: not JSON (%s): %s" (List.hd args) e s
  in
  let exhaust = json_of [ "exhaust"; file; "--max-trace"; "64"; "--json" ] in
  Alcotest.(check (option string)) "exhaust spec name recovered" (Some name)
    (Option.bind (Json.member "spec" exhaust) Json.string_value);
  let lint = json_of [ "lint"; file; "--json" ] in
  Alcotest.(check bool) "lint errors field" true
    (Option.bind (Json.member "errors" lint) Json.int_value <> None)

(* Exit status of glitchctl on [args], or [None] if it is still running
   after [seconds] (it is then killed). *)
let exec_within seconds args =
  let null = Unix.openfile Filename.null [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process glitchctl
      (Array.of_list (glitchctl :: args))
      null null null
  in
  Unix.close null;
  let deadline = Unix.gettimeofday () +. seconds in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.05;
      wait ()
    | 0, _ ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      None
    | _, Unix.WEXITED code -> Some code
    | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> Some (-1)
  in
  wait ()

(* A negative settle budget once counted down from -1 forever, and a
   non-positive trace window ran and exited 0: both are usage errors,
   in the CLI (exit 2, promptly) and in the library. *)
let test_exhaust_rejects_bad_budgets () =
  List.iter
    (fun args ->
      Alcotest.(check (option int))
        (String.concat " " args) (Some 2)
        (exec_within 20.
           ([ "exhaust"; guard_loop_src; "--max-trace"; "16"; "--jobs"; "1" ] @ args)))
    [ [ "--settle=-1" ]; [ "--max-trace=-5" ]; [ "--max-trace=0" ] ];
  let spec =
    Exhaust.Campaign.spec_of_case
      (Glitch_emu.Testcase.conditional_branch Thumb.Instr.EQ)
  in
  let base = Exhaust.Campaign.default_config () in
  List.iter
    (fun (name, config) ->
      match Exhaust.Campaign.run spec config with
      | _ -> Alcotest.failf "run accepted %s" name
      | exception Invalid_argument _ -> ())
    [ ("settle -1", { base with Exhaust.Campaign.settle_steps = Some (-1) });
      ("max_trace 0", { base with Exhaust.Campaign.max_trace = 0 }) ]

(* A zero sweep step never advanced the width loop: attack ran with
   memory growing until killed. It is a usage error in the CLI and an
   [Invalid_argument] in the library. *)
let test_attack_rejects_zero_step () =
  Alcotest.(check (option int)) "attack --step 0" (Some 2)
    (exec_within 20.
       [ "attack"; guard_loop_src; "--step"; "0"; "--jobs"; "1" ]);
  let image =
    (Resistor.Driver.compile Resistor.Config.none Resistor.Firmware.guard_loop)
      .image
  in
  match
    Resistor.Evaluate.run_image ~sweep_step:0 image Resistor.Evaluate.Single
  with
  | _ -> Alcotest.fail "run_image accepted sweep_step 0"
  | exception Invalid_argument _ -> ()

(* A firmware that halts without calling __trigger_high() cannot be
   attacked: attack reports it in one line on stderr and exits 2. *)
let test_attack_no_trigger () =
  let firmware = write_tmp ".c" "int main() { return 0; }\n" in
  let err = Filename.temp_file "glitchctl_attack" ".err" in
  let code =
    Sys.command
      (Filename.quote_command glitchctl
         [ "attack"; firmware; "--jobs"; "1" ]
         ~stdout:Filename.null ~stderr:err)
  in
  let stderr = In_channel.with_open_bin err In_channel.input_all in
  Alcotest.(check int) "exit code" 2 code;
  Alcotest.(check int) "stderr lines" 1
    (List.length (String.split_on_char '\n' (String.trim stderr)))

(* OCaml 5.1 runs at most 128 domains, the calling one included: a
   128-job pool is the largest that starts, and a larger --jobs is a
   usage error rather than an uncaught "failed to allocate domain". *)
let test_jobs_bound () =
  Alcotest.(check (option int)) "serve --jobs 128" (Some 0)
    (exec_within 20. [ "serve"; "--jobs"; "128" ]);
  Alcotest.(check (option int)) "serve --jobs 129" (Some 2)
    (exec_within 20. [ "serve"; "--jobs"; "129" ])

(* [glitchctl bench] runs the named experiments and writes BENCH.json
   in the working directory; an unknown experiment or a bad --jobs is
   a usage error that runs nothing. *)
let test_bench_subcommand () =
  let dir = Filename.temp_file "glitchctl_bench" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let out = Filename.concat dir "out.txt" and err = Filename.concat dir "err.txt" in
  let bench args =
    Sys.command
      (Printf.sprintf "cd %s && %s" (Filename.quote dir)
         (Filename.quote_command glitchctl ("bench" :: args) ~stdout:out
            ~stderr:err))
  in
  let read path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let contains s sub =
    let n = String.length sub in
    let rec at i =
      i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
    in
    at 0
  in
  Alcotest.(check int) "bench table7" 0 (bench [ "table7"; "--jobs"; "1" ]);
  Alcotest.(check bool) "table printed" true
    (contains (read out) "Table VII - software-based defense comparison");
  Alcotest.(check string) "no PERF records" "[]"
    (String.trim (read (Filename.concat dir "BENCH.json")));
  Alcotest.(check int) "bench bogus" 2 (bench [ "bogus" ]);
  Alcotest.(check string) "nothing run" "" (read out);
  Alcotest.(check bool) "bogus named" true (contains (read err) "'bogus'");
  Alcotest.(check int) "bench --jobs 0" 2 (bench [ "table7"; "--jobs"; "0" ]);
  (* table4 and table5 each print their own table, once *)
  let count s sub =
    let n = String.length sub in
    let rec go i acc =
      if i + n > String.length s then acc
      else go (i + 1) (if String.sub s i n = sub then acc + 1 else acc)
    in
    go 0 0
  in
  Alcotest.(check int) "bench table4 table5" 0
    (bench [ "table4"; "table5"; "--jobs"; "1" ]);
  Alcotest.(check (list int)) "Table IV, Table V headers" [ 1; 1 ]
    [ count (read out) "Table IV - "; count (read out) "Table V - " ];
  Alcotest.(check int) "bench table5" 0 (bench [ "table5"; "--jobs"; "1" ]);
  Alcotest.(check (list int)) "Table V alone" [ 0; 1 ]
    [ count (read out) "Table IV - "; count (read out) "Table V - " ]

let () =
  Alcotest.run "gen"
    [ ( "corpus",
        [ Alcotest.test_case "save/load round trip" `Quick
            test_corpus_roundtrip;
          Alcotest.test_case "unknown defense rejected" `Quick
            test_unknown_defense_rejected;
          Alcotest.test_case "committed entries' configs" `Quick
            test_committed_configs ] );
      ( "sabotage",
        [ Alcotest.test_case "fixed pass defends" `Quick
            test_fixed_pass_defends ] );
      ( "regressions",
        [ Alcotest.test_case "negative literal round trip" `Quick
            test_negative_literal_roundtrip;
          Alcotest.test_case "do-while loop guard" `Quick
            test_do_while_loop_guard;
          Alcotest.test_case "pool islands + branch relaxation" `Quick
            test_pool_islands_and_relaxation;
          Alcotest.test_case "spilled-slot clobber defended" `Quick
            test_spilled_slot_clobber_defended ] );
      ( "oracle",
        [ Alcotest.test_case "observer trace" `Quick test_observer_trace ] );
      ( "fuzz",
        [ Alcotest.test_case "fixed-seed smoke" `Quick test_fuzz_smoke;
          Alcotest.test_case "efficacy at seed 42" `Quick test_fuzz_efficacy;
          Alcotest.test_case "capacity limit skips, not passes" `Quick
            test_capacity_limit_skips;
          Alcotest.test_case "skip-rate budget" `Quick test_skip_rate_budget ] );
      ( "cli",
        [ Alcotest.test_case "exit-code matrix" `Quick test_exit_codes;
          Alcotest.test_case "json escapes file names" `Quick
            test_json_escapes_file_names;
          Alcotest.test_case "exhaust rejects bad budgets" `Quick
            test_exhaust_rejects_bad_budgets;
          Alcotest.test_case "attack rejects step 0" `Quick
            test_attack_rejects_zero_step;
          Alcotest.test_case "jobs bound is the domain limit" `Quick
            test_jobs_bound;
          Alcotest.test_case "bench subcommand" `Quick test_bench_subcommand;
          Alcotest.test_case "attack without a trigger" `Quick
            test_attack_no_trigger ] ) ]
