(* glitchctl: the command-line face of the toolkit.

     glitchctl asm file.s            assemble and list
     glitchctl disasm d003 2307      decode halfwords
     glitchctl run file.s            execute on the plain machine
     glitchctl emulate beq --model and
                                     Figure-2 campaign for one branch
     glitchctl compile fw.c --defenses all --sensitive a,b --dump
                                     GlitchResistor pipeline + objdump
     glitchctl attack fw.c --defenses all --attack single --step 4
                                     parameter sweep against an image
     glitchctl table 1 --guard not_a --jobs 4
                                     Table I/II/III hardware sweep
     glitchctl tune not_a            Section V-B parameter search
     glitchctl lint fw.c --defenses all --json
                                     static glitch-surface + defense audit
     glitchctl exhaust fw.c --jobs 4 --cache-dir .cache
                                     trace-wide exhaustive fault campaign
     glitchctl serve --cache-dir .cache --jobs 4
                                     JSON-lines batch audit service
     glitchctl bench fig2 --jobs 4   regenerate the paper's tables and
                                     figures (see bench.ml) *)

open Cmdliner

(* Exit-code discipline, so CI can tell a crash from a finding:
     0  success / clean lint
     1  internal failure (a bug in the toolkit)
     2  invalid input (unparsable source, unknown names, bad words)
     3  Error-severity lint findings
   (cmdliner itself reserves 124/125 for CLI and internal errors). *)
let exit_internal = 1
let exit_input = 2
let exit_findings = 3

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Reads [file], runs the front end [parse] on its text and hands the
   result to [k]. Every front-end rejection (bad assembly, a Mini-C
   parse or type error, a construct codegen or layout cannot lower) is
   invalid input: "file: message" on stderr and exit 2. Any other
   front-end exception is an internal failure (exit 1). Exceptions
   raised by [k] are not caught here. *)
let with_source file parse k =
  let reject pp e =
    Fmt.epr "%s: %a@." file pp e;
    exit_input
  in
  match parse (read_file file) with
  | parsed -> k parsed
  | exception Thumb.Asm.Parse_error e -> reject Thumb.Asm.pp_error e
  | exception Minic.Parser.Error e -> reject Minic.Parser.pp_error e
  | exception Minic.Sema.Error e -> reject Minic.Sema.pp_error e
  | exception Lower.Codegen.Error e -> reject Lower.Codegen.pp_error e
  | exception Lower.Layout.Error e -> reject Lower.Layout.pp_error e
  | exception e ->
    Fmt.epr "%s: internal error: %s@." file (Printexc.to_string e);
    exit_internal

(* --- shared argument parsers -------------------------------------------- *)

let guard_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "not_a" | "!a" | "while(!a)" -> Ok Hw.Attack.While_not_a
    | "a" | "while(a)" -> Ok Hw.Attack.While_a
    | "ne" | "const" | "while(a!=k)" -> Ok Hw.Attack.While_ne_const
    | other -> Error (`Msg (Printf.sprintf "unknown guard %S (not_a|a|ne)" other))
  in
  Arg.conv (parse, fun ppf g -> Fmt.string ppf (Hw.Attack.guard_name g))

(* --defenses SET --sensitive GLOBALS, as one configuration. The set
   names, what they mean and their --help text all come from
   Config.sets. *)
let config_arg =
  let parse s =
    let s = String.lowercase_ascii s in
    if List.mem_assoc s Resistor.Config.sets then Ok (Resistor.Config.set s)
    else
      Error
        (`Msg
          (Printf.sprintf "unknown defense set %S (known: %s)" s
             (String.concat ", " (List.map fst Resistor.Config.sets))))
  in
  let describe (set, defenses) =
    Printf.sprintf "$(b,%s) (%s)" (Manpage.escape set)
      (Manpage.escape (Resistor.Config.name (Resistor.Config.make defenses)))
  in
  let set =
    Arg.(
      value
      & opt (conv (parse, Fmt.of_to_string Resistor.Config.name))
          Resistor.Config.none
      & info [ "defenses" ] ~docv:"SET"
          ~doc:
            ("The named defense set, one of "
            ^ String.concat ", " (List.map describe Resistor.Config.sets)
            ^ "."))
  in
  let sensitive =
    Arg.(
      value
      & opt (list string) []
      & info [ "sensitive" ] ~docv:"GLOBALS"
          ~doc:"Comma-separated globals for the data-integrity pass.")
  in
  Term.(
    const (fun config sensitive -> { config with Resistor.Config.sensitive })
    $ set $ sensitive)

(* An integer option within [lo, hi]: a value outside is a usage error
   (exit 2) before any work starts. *)
let int_in ?(hi = max_int) lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when lo <= n && n <= hi -> Ok n
    | Some _ | None ->
      Error
        (`Msg
          (if hi = max_int then
             Printf.sprintf "expected an integer >= %d, got %S" lo s
           else Printf.sprintf "expected an integer in [%d, %d], got %S" lo hi s))
  in
  Arg.conv (parse, Fmt.int)

(* OCaml 5.1 runs at most 128 domains at once, the calling domain
   included, and a pool of N jobs is the caller plus N - 1 domains. *)
let max_jobs = 128

(* [chunks] clamps the default to the command's parallel work-item
   count: a table sweep has only 8-11 items, so domains beyond that
   would just spin. Note the recommended domain count reflects the
   host's cores — in a CPU-limited CI container, pass --jobs
   explicitly. *)
let jobs_arg ?chunks () =
  Arg.(
    value
    & opt (int_in ~hi:max_jobs 1) (Runtime.Pool.default_jobs ?chunks ())
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          (Printf.sprintf
             "Worker domains for campaign sweeps, from 1 to %d (default: \
              the recommended domain count, clamped to the command's \
              work-item count). Results are bit-identical at any job \
              count; 1 runs one worker in the calling domain."
             max_jobs))

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Persistent result cache (created if missing). Sweeps whose \
           (snippet, fault model, parameters, code version) key is \
           already cached are served without executing anything; \
           corrupted entries are treated as misses.")

(* --- asm ------------------------------------------------------------------- *)

let asm_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let run file =
    with_source file Thumb.Asm.assemble @@ fun instrs ->
    List.iteri
      (fun i ins ->
        Fmt.pr "%4d:  %04x  %a@." (2 * i) (Thumb.Encode.instr ins)
          Thumb.Instr.pp ins)
      instrs;
    0
  in
  Cmd.v (Cmd.info "asm" ~doc:"Assemble a Thumb-16 source file and list it.")
    Term.(const run $ file)

(* --- disasm ------------------------------------------------------------------ *)

let disasm_cmd =
  let words =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"HEXWORD")
  in
  let run words =
    let code = ref 0 in
    List.iter
      (fun s ->
        match int_of_string_opt ("0x" ^ s) with
        | Some w when w >= 0 && w <= 0xFFFF ->
          Fmt.pr "%04x  %a@." w Thumb.Instr.pp (Thumb.Decode.of_word w)
        | Some _ | None ->
          Fmt.epr "not a 16-bit hex word: %S@." s;
          code := exit_input)
      words;
    !code
  in
  Cmd.v (Cmd.info "disasm" ~doc:"Decode 16-bit hex words.")
    Term.(const run $ words)

(* --- run ---------------------------------------------------------------------- *)

let run_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let steps =
    Arg.(value & opt int 100_000 & info [ "max-steps" ] ~docv:"N")
  in
  let run file steps =
    with_source file Machine.Loader.load_asm @@ fun t ->
    let stop = Machine.Exec.run ~max_steps:steps t.mem t.cpu in
    Fmt.pr "stopped: %a@.%a@." Machine.Exec.pp_stop stop Machine.Cpu.pp t.cpu;
    0
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Assemble and execute a program on the bare machine.")
    Term.(const run $ file $ steps)

(* --- emulate (figure 2 for one branch) ------------------------------------------ *)

let emulate_cmd =
  let branch =
    Arg.(value & pos 0 string "beq" & info [] ~docv:"BRANCH")
  in
  let model =
    let model_conv =
      Arg.conv
        ( (fun s ->
            match String.lowercase_ascii s with
            | "and" -> Ok Glitch_emu.Fault_model.And
            | "or" -> Ok Glitch_emu.Fault_model.Or
            | "xor" -> Ok Glitch_emu.Fault_model.Xor
            | other -> Error (`Msg (Printf.sprintf "unknown model %S" other))),
          fun ppf m -> Fmt.string ppf (Glitch_emu.Fault_model.name m) )
    in
    Arg.(
      value
      & opt model_conv Glitch_emu.Fault_model.And
      & info [ "model" ] ~docv:"M")
  in
  let isa =
    Arg.(
      value
      & opt (enum [ ("thumb", `Thumb); ("riscv", `Riscv) ]) `Thumb
      & info [ "isa" ] ~docv:"ISA" ~doc:"thumb (exhaustive) or riscv (sampled).")
  in
  let run branch model isa jobs cache_dir =
    let print_categories percent =
      List.iter
        (fun cat ->
          Fmt.pr "  %-20s %6.2f%%@."
            (Glitch_emu.Campaign.category_name cat)
            (percent cat))
        Glitch_emu.Campaign.categories
    in
    match isa with
    | `Thumb -> (
      match
        List.find_opt
          (fun c -> "b" ^ Thumb.Instr.cond_name c = String.lowercase_ascii branch)
          Thumb.Instr.all_conds
      with
      | None ->
        Fmt.epr "unknown Thumb conditional branch %S@." branch;
        exit_input
      | Some cond ->
        let case = Glitch_emu.Testcase.conditional_branch cond in
        let result, status =
          Runtime.Pool.with_pool ~jobs (fun pool ->
              let cache = Option.map Cache.open_dir cache_dir in
              let svc = Service.create ~pool ?cache () in
              Service.run_case svc
                (Glitch_emu.Campaign.default_config model)
                case)
        in
        Fmt.pr "%s under %s over all 65,536 masks:@." case.name
          (Glitch_emu.Fault_model.name model);
        print_categories (Glitch_emu.Campaign.category_percent result);
        if cache_dir <> None then
          Fmt.pr "cache: %s (%d executed, %d memoized)@."
            (Service.status_name status)
            result.stats.executed result.stats.memoized;
        0)
    | `Riscv -> (
      match
        List.find_opt
          (fun c -> Riscv.Instr.branch_cond_name c = String.lowercase_ascii branch)
          Riscv.Instr.branch_conds
      with
      | None ->
        Fmt.epr "unknown RV32I branch %S (beq|bne|blt|bge|bltu|bgeu)@." branch;
        exit_input
      | Some cond ->
        let case = Riscv.Campaign.conditional_branch cond in
        let result = Riscv.Campaign.run_case model case in
        Fmt.pr "%s under %s (sampled masks):@." case.name
          (Glitch_emu.Fault_model.name model);
        print_categories (Riscv.Campaign.category_percent result);
        0)
  in
  Cmd.v
    (Cmd.info "emulate"
       ~doc:
         "Exhaustive bit-flip campaign against one conditional branch. \
          With $(b,--cache-dir), Thumb results are cached persistently \
          and warm runs execute nothing.")
    Term.(const run $ branch $ model $ isa $ jobs_arg () $ cache_dir_arg)

(* --- compile -------------------------------------------------------------------- *)

let compile_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let dump = Arg.(value & flag & info [ "dump" ] ~doc:"Disassemble the image.") in
  let run file config dump =
    with_source file (Resistor.Driver.compile config) @@ fun compiled ->
    Fmt.pr "defenses: %s@." (Resistor.Config.name config);
    List.iter
      (fun (section, bytes) -> Fmt.pr "  %-6s %6d bytes@." section bytes)
      (Lower.Layout.size_report compiled.image);
    (match compiled.reports.enum_report with
    | Some r ->
      List.iter
        (fun (name, values) ->
          Fmt.pr "  enum %s diversified (%d members)@." name
            (List.length values))
        r.rewritten
    | None -> ());
    (match compiled.reports.returns_report with
    | Some r ->
      Fmt.pr "  return codes: %d of %d considered functions diversified@."
        (List.length r.instrumented) r.considered
    | None -> ());
    (match compiled.reports.branches_report with
    | Some r -> Fmt.pr "  %d conditional branches duplicated@." r.branches_instrumented
    | None -> ());
    (match compiled.reports.loops_report with
    | Some r -> Fmt.pr "  %d loop guards duplicated@." r.loops_instrumented
    | None -> ());
    (match compiled.reports.delay_report with
    | Some r -> Fmt.pr "  %d random-delay sites@." r.sites
    | None -> ());
    if dump then print_string (Lower.Objdump.to_string compiled.image);
    0
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Run the GlitchResistor pipeline on a Mini-C firmware.")
    Term.(const run $ file $ config_arg $ dump)

(* --- attack ---------------------------------------------------------------------- *)

let attack_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let attack =
    let attack_conv =
      Arg.conv
        ( (fun s ->
            match String.lowercase_ascii s with
            | "single" -> Ok Resistor.Evaluate.Single
            | "long" -> Ok Resistor.Evaluate.Long
            | "windowed" -> Ok Resistor.Evaluate.Windowed
            | other -> Error (`Msg (Printf.sprintf "unknown attack %S" other))),
          fun ppf a -> Fmt.string ppf (Resistor.Evaluate.attack_name a) )
    in
    Arg.(
      value
      & opt attack_conv Resistor.Evaluate.Single
      & info [ "attack" ] ~docv:"A")
  in
  let step =
    Arg.(
      value & opt (int_in 1) 1
      & info [ "step" ] ~docv:"N"
          ~doc:"Sweep every $(docv)th width and offset; at least 1.")
  in
  let run file config attack step jobs =
    (* reuse the Table VI machinery on arbitrary firmware: it only needs
       a trigger, the attack-marker global, and the detection counter *)
    with_source file (Resistor.Driver.compile config) @@ fun compiled ->
    match
      Runtime.Pool.with_pool ~jobs (fun pool ->
          let o, elapsed_s =
            Stats.Perf.time (fun () ->
                Resistor.Evaluate.run_image ~pool ~sweep_step:step
                  compiled.image attack)
          in
          (Hw.Attack.sweep_perf ~label:"attack" ~pool o.sweep elapsed_s, o))
    with
    | perf, o ->
      Fmt.pr "%s vs %s: %d attempts, %d successes (%a), %d detections@."
        (Resistor.Evaluate.attack_name attack)
        (Resistor.Config.name config)
        o.attempts o.successes Stats.Rate.pp_pct
        (Resistor.Evaluate.success_rate o)
        o.detections;
      Fmt.pr "%s@." (Stats.Perf.machine_line perf);
      0
    | exception Hw.Attack.No_trigger ->
      Fmt.epr "firmware never raised the trigger (call __trigger_high())@.";
      exit_input
  in
  Cmd.v
    (Cmd.info "attack"
       ~doc:
         "Sweep the glitch-parameter plane against a firmware (it must call \
          __trigger_high() and set attack_success = 170 on compromise).")
    Term.(const run $ file $ config_arg $ attack $ step $ jobs_arg ())

(* --- table ------------------------------------------------------------------------ *)

let table_cmd =
  let n = Arg.(required & pos 0 (some (int_in ~hi:3 1)) None & info [] ~docv:"N") in
  let guard =
    Arg.(
      value
      & opt guard_conv Hw.Attack.While_not_a
      & info [ "guard" ] ~docv:"GUARD" ~doc:"not_a, a, or ne.")
  in
  let run n guard jobs =
    let table = List.nth Bench.[ table1; table2; table3 ] (n - 1) in
    Runtime.Pool.with_pool ~jobs (fun pool -> table ~pool [ guard ] ());
    0
  in
  Cmd.v
    (Cmd.info "table"
       ~doc:
         "Run one of the paper's hardware sweeps (Table I, II or III) for one \
          guard via the snapshot-replay kernel and print it as \
          $(b,glitchctl bench) does, PERF line included.")
    Term.(const run $ n $ guard $ jobs_arg ~chunks:8 ())

(* --- tune ------------------------------------------------------------------------- *)

let tune_cmd =
  let guard = Arg.(value & pos 0 guard_conv Hw.Attack.While_not_a & info [] ~docv:"GUARD") in
  let run guard =
    Bench.tuner [ guard ] ();
    0
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:"Search for 100%-reliable glitch parameters (Section V-B).")
    Term.(const run $ guard)

(* --- lint ------------------------------------------------------------------------- *)

let lint_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON on stdout.")
  in
  let exhaust =
    Arg.(
      value & flag
      & info [ "exhaust" ]
          ~doc:
            "Also run the trace-wide exhaustive fault campaign on the image \
             and report per-function agreement between the static surface \
             scores and the dynamic verdict tables.")
  in
  let absint =
    Arg.(
      value & flag
      & info [ "absint" ]
          ~doc:
            "Re-grade the structural guard audit with the abstract \
             fault-flow prover: a guard whose faulted continuations \
             provably all end in detection is downgraded even without a \
             duplicate, a structurally protected guard with a proven \
             deterministic escape is upgraded to an error, and the \
             prover's findings are merged into the report.")
  in
  let run file config json exhaust absint jobs =
    let target source =
      if Filename.check_suffix file ".s" then
        Analysis.Lint.of_instrs (Thumb.Asm.assemble source)
      else Analysis.Lint.of_compiled (Resistor.Driver.compile config source)
    in
    with_source file target @@ fun target ->
    let report = Analysis.Lint.run target in
    let report =
      if not absint then report
      else
        let prove =
          Absint.Prove.run ?reports:target.Analysis.Lint.reports
            ?modul:target.Analysis.Lint.modul target.Analysis.Lint.image
        in
        { report with
          Analysis.Lint.diags = Absint.Prove.refine_lint report prove }
    in
    let agreement =
      if not exhaust then None
      else
        let spec =
          Exhaust.Campaign.spec_of_image ~name:(Filename.basename file)
            target.Analysis.Lint.image
        in
        let config = Exhaust.Campaign.default_config () in
        let result =
          Runtime.Pool.with_pool ~jobs (fun pool ->
              Exhaust.Campaign.run ~pool spec config)
        in
        let baseline, _stop = Exhaust.Campaign.baseline spec config in
        Some
          (Exhaust.Agreement.of_result ~baseline
             report.Analysis.Lint.surface result)
    in
    (match (json, agreement) with
    | true, None -> print_endline (Json.to_string (Analysis.Lint.to_json report))
    | true, Some a ->
      print_endline
        (Json.to_string
           (Json.Obj
              [ ("lint", Analysis.Lint.to_json report);
                ("agreement", Exhaust.Agreement.to_json a) ]))
    | false, None -> Fmt.pr "%a@." Analysis.Lint.pp report
    | false, Some a ->
      Fmt.pr "%a@.%a" Analysis.Lint.pp report Exhaust.Agreement.pp a);
    if Analysis.Lint.errors report <> [] then exit_findings else 0
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static glitch-surface analysis and defense audit of a Mini-C \
          firmware (compiled with $(b,--defenses)) or an assembly snippet \
          ($(i,.s)). Exits 0 when clean, 3 on Error-severity findings, 2 \
          on invalid input."
       ~exits:
         (Cmd.Exit.info 0 ~doc:"on a clean report (no Error findings)."
         :: Cmd.Exit.info exit_input ~doc:"on unparsable or invalid input."
         :: Cmd.Exit.info exit_findings
              ~doc:"on Error-severity lint findings."
         :: Cmd.Exit.defaults))
    Term.(
      const run $ file $ config_arg $ json $ exhaust $ absint $ jobs_arg ())

(* --- prove ------------------------------------------------------------------------ *)

let prove_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON on stdout.")
  in
  let run file config json =
    with_source file (Resistor.Driver.compile config)
    @@ fun compiled ->
    let report =
      Absint.Prove.run ~reports:compiled.reports ~modul:compiled.modul
        compiled.image
    in
    if json then print_endline (Json.to_string (Absint.Prove.to_json report))
    else Fmt.pr "%a" Absint.Prove.pp report;
    if Absint.Prove.errors report <> [] then exit_findings else 0
  in
  Cmd.v
    (Cmd.info "prove"
       ~doc:
         "Abstract-interpretation fault-flow audit of a Mini-C firmware \
          (compiled with $(b,--defenses)): for every conditional branch the \
          pristine run reaches, explore the direction-flipped continuation \
          and prove it detected/crashed, or exhibit an escape witness. \
          Error-severity escapes exit 3; a fully proven build exits 0."
       ~exits:
         (Cmd.Exit.info 0 ~doc:"when no deterministic escape was found."
         :: Cmd.Exit.info exit_input ~doc:"on unparsable or invalid input."
         :: Cmd.Exit.info exit_findings
              ~doc:"on a deterministic escape witness (Error severity)."
         :: Cmd.Exit.defaults))
    Term.(const run $ file $ config_arg $ json)

(* --- exhaust ---------------------------------------------------------------------- *)

let cycles_arg =
  let parse s =
    match String.split_on_char ':' s with
    | [ lo; hi ] -> (
      match (int_of_string_opt lo, int_of_string_opt hi) with
      | Some lo, Some hi when 0 <= lo && lo < hi -> Ok (lo, hi)
      | _ -> Error (`Msg (Printf.sprintf "bad cycle window %S (want LO:HI)" s)))
    | _ -> Error (`Msg (Printf.sprintf "bad cycle window %S (want LO:HI)" s))
  in
  Arg.(
    value
    & opt (some (conv (parse, fun ppf (lo, hi) -> Fmt.pf ppf "%d:%d" lo hi)))
        None
    & info [ "cycles" ] ~docv:"LO:HI"
        ~doc:
          "Restrict injection to baseline cycles [LO, HI) instead of the \
           whole trace.")

let exhaust_mode_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("transient", Exhaust.Campaign.Transient);
             ("persistent", Exhaust.Campaign.Persistent) ])
        Exhaust.Campaign.Transient
    & info [ "mode" ] ~docv:"MODE"
        ~doc:
          "transient: execute the perturbed word once, flash untouched; \
           persistent: write it to flash before the fetch.")

let exhaust_config ?(static = false) ?settle mode max_trace cycles =
  { (Exhaust.Campaign.default_config ()) with
    Exhaust.Campaign.mode;
    max_trace;
    cycles;
    settle_steps = settle;
    static_prune = static }

let run_exhaust ?static ?settle ~label compiled mode max_trace cycles jobs
    cache_dir =
  let spec = Exhaust.Campaign.spec_of_image ~name:label compiled.Resistor.Driver.image in
  let config = exhaust_config ?static ?settle mode max_trace cycles in
  Runtime.Pool.with_pool ~jobs (fun pool ->
      let cache = Option.map Cache.open_dir cache_dir in
      let (result, hit), elapsed_s =
        Stats.Perf.time (fun () ->
            Exhaust.Campaign.run_cached ~pool ?cache spec config)
      in
      (result, hit, Exhaust.Campaign.perf ~label:"exhaust" ~pool result elapsed_s))

let pp_exhaust_result ppf (r : Exhaust.Campaign.result) =
  Fmt.pf ppf "%s, %s mode: %d trace cycles (%s), settle %d@." r.spec_name
    (Exhaust.Campaign.mode_name r.mode)
    r.trace_steps
    (match r.baseline_stop with
    | None -> "still running"
    | Some s -> Fmt.str "%a" Machine.Exec.pp_stop s)
    r.settle;
  Fmt.pf ppf "cycles [%d, %d): %d injection points, %d distinct states@."
    r.cycle_lo r.cycle_hi r.points r.states;
  let header = "function" :: List.map Exhaust.Campaign.verdict_name Exhaust.Campaign.verdicts in
  let cell_of_counts counts =
    List.map
      (fun v -> string_of_int counts.(Exhaust.Campaign.verdict_index v))
      Exhaust.Campaign.verdicts
  in
  let body =
    List.map
      (fun (row : Exhaust.Campaign.row) -> row.fname :: cell_of_counts row.counts)
      r.rows
    @ [ "TOTAL" :: cell_of_counts r.totals ]
  in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun w cells -> max w (String.length (List.nth cells i)))
          (String.length h) body)
      header
  in
  let pp_row cells =
    List.iteri
      (fun i cell ->
        let w = List.nth widths i in
        if i = 0 then Fmt.pf ppf "  %-*s" w cell else Fmt.pf ppf "  %*s" w cell)
      cells;
    Fmt.pf ppf "@."
  in
  pp_row header;
  List.iter pp_row body;
  Fmt.pf ppf
    "%d faulted at the injected step; continuations: %d executed, %d pruned \
     (%.1f%% shared)@."
    r.faulted r.executed r.pruned
    (100. *. Exhaust.Campaign.prune_rate r);
  if r.static_pruned > 0 then
    Fmt.pf ppf "static pre-pruner: %d points proven without emulation@."
      r.static_pruned

let exhaust_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let max_trace =
    Arg.(
      value & opt (int_in 1) 2048
      & info [ "max-trace" ] ~docv:"N"
          ~doc:
            "Baseline window: cycles traced (and injected into) from reset; \
             at least 1.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the result as JSON on stdout.")
  in
  let static =
    Arg.(
      value & flag
      & info [ "static" ]
          ~doc:
            "Pre-prune injection points with the abstract fault-flow prover: \
             points whose damage provably dies before the trace window ends \
             are classified without emulation. Verdict tables are \
             bit-identical either way; the soundness differential is \
             enforced by $(b,glitchctl fuzz --properties absint).")
  in
  let settle =
    Arg.(
      value
      & opt (some (int_in 0)) None
      & info [ "settle" ] ~docv:"N"
          ~doc:
            "Continuation budget after the injected step, at least 0 \
             (default: auto-derived from the baseline). A budget below the trace \
             window is what lets the static pre-pruner cover \
             non-terminating baselines. A long budget costs only the \
             continuations that are not periodic: one whose whole machine \
             state recurs ends at the first recurrence, with the final \
             state a full run would reach.")
  in
  let run file config mode max_trace cycles json static settle jobs
      cache_dir =
    with_source file (Resistor.Driver.compile config) @@ fun compiled ->
    let result, hit, perf =
      run_exhaust ~static ?settle ~label:(Filename.basename file) compiled
        mode max_trace cycles jobs cache_dir
    in
    if json then print_endline (Json.to_string (Exhaust.Campaign.to_json result))
    else begin
      Fmt.pr "%a" pp_exhaust_result result;
      if cache_dir <> None then
        Fmt.pr "cache: %s@." (if hit then "hit" else "miss");
      Fmt.pr "%s@." (Stats.Perf.machine_line perf)
    end;
    0
  in
  Cmd.v
    (Cmd.info "exhaust"
       ~doc:
         "Trace-wide exhaustive fault campaign against a Mini-C firmware: \
          every (cycle, fault model, mask) injection point along the \
          baseline execution, classified against the pristine run. \
          Continuations reaching an already-seen machine state are pruned \
          through a shared state-hash map, so the per-function verdict \
          tables are bit-identical at any $(b,--jobs).")
    Term.(
      const run $ file $ config_arg $ exhaust_mode_arg
      $ max_trace $ cycles_arg $ json $ static $ settle $ jobs_arg ()
      $ cache_dir_arg)

(* --- fuzz ------------------------------------------------------------------------- *)

let fuzz_cmd =
  let count =
    Arg.(
      value & opt int 100
      & info [ "count" ] ~docv:"N" ~doc:"Generated programs per property family.")
  in
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Generator seed; a fresh one is drawn (and printed) if omitted.")
  in
  let corpus =
    Arg.(
      value & opt string "corpus"
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Directory for shrunk, replayable counterexamples.")
  in
  let properties =
    Arg.(
      value
      & opt (some string) None
      & info [ "properties" ] ~docv:"LIST"
          ~doc:
            "Comma-separated family subset: roundtrip, semantics, efficacy, \
             static-dynamic, absint.")
  in
  let replay =
    Arg.(
      value
      & opt (some file) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Re-run one saved counterexample instead of fuzzing.")
  in
  let max_skip_rate =
    Arg.(
      value & opt float 0.5
      & info [ "max-skip-rate" ] ~docv:"RATE"
          ~doc:
            "Fail (exit 3) when a family skips more than this fraction of \
             its cases: skipped preconditions are not evidence, and a \
             generator drifting into a precondition desert would otherwise \
             \"pass\" while exercising nothing.")
  in
  let run count seed corpus properties replay max_skip_rate =
    match replay with
    | Some path -> (
      match Gen.Corpus.load path with
      | Error m ->
        Fmt.epr "%s: %s@." path m;
        exit_input
      | Ok entry -> (
        match Gen.Fuzz.replay entry with
        | Error m ->
          Fmt.epr "%s: %s@." path m;
          exit_input
        | Ok Gen.Fuzz.Pass ->
          Fmt.pr "replay %s: %s now passes@." path entry.Gen.Corpus.property;
          0
        | Ok (Gen.Fuzz.Skip m) ->
          Fmt.epr "replay %s: precondition no longer holds (%s)@." path m;
          exit_input
        | Ok (Gen.Fuzz.Fail m) ->
          Fmt.pr "replay %s: %s still fails@.  %s@." path
            entry.Gen.Corpus.property m;
          exit_findings))
    | None when count <= 0 ->
      Fmt.epr "--count expects a positive integer (got %d)@." count;
      exit_input
    | None -> (
      let families =
        match properties with
        | None -> Ok Gen.Fuzz.all_families
        | Some s ->
          String.split_on_char ',' s |> List.map String.trim
          |> List.fold_left
               (fun acc name ->
                 match (acc, Gen.Fuzz.family_of_string name) with
                 | Error _, _ -> acc
                 | Ok _, None -> Error name
                 | Ok fs, Some f -> Ok (fs @ [ f ]))
               (Ok [])
      in
      match families with
      | Error name ->
        Fmt.epr "unknown property family %S@." name;
        exit_input
      | Ok families ->
        let seed =
          match seed with
          | Some s -> s
          | None ->
            Random.self_init ();
            Random.int 0x3FFFFFFF
        in
        Fmt.pr "fuzz: seed %d, %d program(s) per family@." seed count;
        let summary =
          Gen.Fuzz.run ~dir:corpus ~families ~count ~seed ()
        in
        List.iter
          (fun (r : Gen.Fuzz.family_run) ->
            match r.failure with
            | None ->
              Fmt.pr "  %-14s %d checked, %d skipped (%.0f%% skip): ok@."
                (Gen.Fuzz.family_name r.family)
                r.checked r.skipped
                (100. *. Gen.Fuzz.skip_rate r)
            | Some f ->
              Fmt.pr "  %-14s FAILED after %d checks (%d shrink steps)@."
                (Gen.Fuzz.family_name r.family)
                r.checked f.shrink_steps;
              Fmt.pr "    %s@." f.message;
              Option.iter
                (fun p -> Fmt.pr "    counterexample saved to %s@." p)
                f.corpus_path)
          summary.runs;
        let breaches = Gen.Fuzz.skip_breaches ~max_skip_rate summary in
        List.iter
          (fun (r : Gen.Fuzz.family_run) ->
            Fmt.pr
              "  %-14s skip rate %.0f%% exceeds --max-skip-rate %.0f%%@."
              (Gen.Fuzz.family_name r.family)
              (100. *. Gen.Fuzz.skip_rate r)
              (100. *. max_skip_rate))
          breaches;
        if Gen.Fuzz.ok summary && breaches = [] then 0 else exit_findings)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential defense testing on random Mini-C firmware: generated \
          programs are compiled under every pass configuration and \
          cross-checked between the source-level interpreter, the board, \
          and the static analyzers; defended guards are swept with 1/2-bit \
          flash corruption. Failures shrink to replayable $(i,corpus/) \
          files. Exits 0 when every family passes, 3 on a property \
          failure or a skip-rate breach, 2 on invalid input."
       ~exits:
         (Cmd.Exit.info 0 ~doc:"when every property family passes."
         :: Cmd.Exit.info exit_input ~doc:"on invalid input."
         :: Cmd.Exit.info exit_findings
              ~doc:"on a property failure or a skip-rate breach."
         :: Cmd.Exit.defaults))
    Term.(
      const run $ count $ seed $ corpus $ properties $ replay $ max_skip_rate)

(* --- bench ----------------------------------------------------------------------- *)

let bench_cmd =
  let experiments =
    Arg.(
      value
      & pos_all (enum (List.map (fun n -> (n, n)) ("all" :: Bench.names))) []
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            (Printf.sprintf
               "Experiments to run, in order; $(b,all), the default, runs %s."
               (String.concat ", " Bench.all)))
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:
            "Coarser sweeps for table6, ablation and defenses (every 4th \
             parameter point) and 10 programs per family for fuzz.")
  in
  let run names quick jobs cache_dir =
    Bench.run ~quick ?cache:(Option.map Cache.open_dir cache_dir) ~jobs names;
    0
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Regenerate the paper's tables and figures (and the extensions) on \
          the simulated substrate. Every run writes its PERF records to \
          $(i,BENCH.json); results are bit-identical at any $(b,--jobs), \
          and $(b,--cache-dir) serves fig2's sweeps from the persistent \
          result cache.")
    Term.(const run $ experiments $ quick $ jobs_arg () $ cache_dir_arg)

(* --- serve ----------------------------------------------------------------------- *)

let serve_cmd =
  let run jobs cache_dir =
    let cache = Option.map Cache.open_dir cache_dir in
    Runtime.Pool.with_pool ~jobs (fun pool ->
        let svc = Service.create ~pool ?cache () in
        let rec loop () =
          match input_line stdin with
          | exception End_of_file -> 0
          | line when String.trim line = "" -> loop ()
          | line ->
            print_endline (Service.handle_line svc line);
            flush stdout;
            loop ()
        in
        loop ())
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Batch audit service: read JSON-lines requests on stdin (e.g. \
          $(b,{\"id\":1,\"case\":\"beq\",\"model\":\"and\"})) and stream one \
          JSON result per line. One worker pool, one set of shared sweep \
          memos, and one persistent cache ($(b,--cache-dir)) are shared \
          across all requests, so repeated audits of the same snippet are \
          served without executing a single sweep case (the response's \
          $(i,cache) field says hit, warm or miss; $(i,executed) counts \
          emulated cases). Malformed requests produce an \
          $(b,{\"ok\":false}) response, not a crash. Exits 0 at EOF.")
    Term.(const run $ jobs_arg () $ cache_dir_arg)

let () =
  let doc = "glitching attack and defense toolkit (Glitching Demystified, DSN'21)" in
  let info = Cmd.info "glitchctl" ~version:"1.0.0" ~doc in
  (* Argument-parse failures (e.g. an unknown defense set fed to
     [config_arg]) are usage errors and must exit 2 like every other
     invalid input — cmdliner's [eval'] hardwires them to 124, so map
     the eval result ourselves. *)
  let group =
    Cmd.group info
      [ asm_cmd; disasm_cmd; run_cmd; emulate_cmd; compile_cmd; attack_cmd;
        table_cmd; tune_cmd; lint_cmd; prove_cmd; exhaust_cmd; fuzz_cmd;
        serve_cmd; bench_cmd ]
  in
  exit
    (match Cmd.eval_value group with
    | Ok (`Ok code) -> code
    | Ok (`Help | `Version) -> 0
    | Error (`Parse | `Term) -> exit_input
    | Error `Exn -> Cmd.Exit.internal_error)
