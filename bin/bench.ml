(* [glitchctl bench]: regenerates every table and figure of "Glitching
   Demystified" (DSN 2021) on the simulated substrate, plus Bechamel
   micro-benchmarks of the harness itself.

     glitchctl bench                  everything
     glitchctl bench fig2             one experiment
     glitchctl bench table6 --quick
     glitchctl bench fig2 --jobs 4
     glitchctl bench fig2 --cache-dir .glitch-cache
     glitchctl bench scaling          jobs ladder

   Results are bit-identical at any --jobs. --cache-dir serves fig2's
   sweeps through the persistent result cache (a warm cache executes
   zero sweep cases). Sweep experiments also emit a machine-readable
   "PERF ..." line, and every run writes all of its PERF records, in
   order, to one BENCH.json (a JSON list of Stats.Perf.to_json objects,
   told apart by their "label").

   The Table I-III and tuner renderers take a guard list, so
   [glitchctl table] and [glitchctl tune] print one guard with the same
   code. Expected paper values are printed next to measured ones; see
   EXPERIMENTS.md for the discussion of each comparison. *)

let section title =
  Fmt.pr "@.============================================================@.";
  Fmt.pr "%s@." title;
  Fmt.pr "============================================================@."

let paper_note fmt = Fmt.pr ("  [paper] " ^^ fmt ^^ "@.")

(* Every PERF record emitted during the run, newest first; written to
   BENCH.json at exit. *)
let perf_log : Stats.Perf.t list ref = ref []

let emit_perf perf =
  perf_log := perf :: !perf_log;
  Fmt.pr "@.%a@.%s@." Stats.Perf.pp perf (Stats.Perf.machine_line perf)

let write_bench_json () =
  let records = List.rev_map Stats.Perf.to_json !perf_log in
  let oc = open_out "BENCH.json" in
  output_string oc (Json.to_string (Json.List records));
  output_char oc '\n';
  close_out oc;
  Fmt.pr "@.Wrote BENCH.json (%d record%s)@." (List.length records)
    (if List.length records = 1 then "" else "s")

(* --- Figure 2: glitching effects in emulation ----------------------------- *)

(* Figure 2's panels: a title, the summary label and one fault-model
   config each, swept over every conditional branch. *)
let fig2_panels =
  let config = Glitch_emu.Campaign.default_config in
  Glitch_emu.Fault_model.
    [ ("(a) AND model (1 -> 0 flips)", "AND", config And);
      ("(b) OR model (0 -> 1 flips)", "OR", config Or);
      ( "(c) AND model, 0x0000 decoded as invalid", "AND(0 invalid)",
        { (config And) with zero_is_invalid = true } );
      ("(supplement) XOR model (bidirectional flips)", "XOR", config Xor) ]

(* The 62 sweeps of 2^16 masks behind Figure 2, in the order it prints
   them: every panel over the conditional branches, then the And and Or
   skip rates of each non-branch instruction. *)
let fig2_sweeps =
  List.concat_map
    (fun (_, _, config) ->
      List.map
        (fun case -> (config, case))
        Glitch_emu.Testcase.all_conditional_branches)
    fig2_panels
  @ List.concat_map
      (fun case ->
        List.map
          (fun flip -> (Glitch_emu.Campaign.default_config flip, case))
          Glitch_emu.Fault_model.[ And; Or ])
      Glitch_emu.Testcase.non_branch_cases

let fig2 ?pool ?cache () =
  section "Figure 2 - bit-flip effects on ARM Thumb conditional branches";
  (* With --cache-dir every sweep is served through the audit service:
     intact cache entries come back with zero executed cases. *)
  let svc = Option.map (fun cache -> Service.create ?pool ~cache ()) cache in
  let hits = ref 0 and warms = ref 0 and misses = ref 0 in
  let run_case (config, case) =
    match svc with
    | None -> Glitch_emu.Campaign.run_case ?pool config case
    | Some svc ->
      let r, status = Service.run_case svc config case in
      (match status with
      | Service.Hit -> incr hits
      | Service.Warm -> incr warms
      | Service.Miss -> incr misses);
      r
  in
  let results, elapsed_s =
    Stats.Perf.time (fun () -> List.map run_case fig2_sweeps)
  in
  let branches = List.length Glitch_emu.Testcase.all_conditional_branches in
  let summary, supplement =
    List.fold_left
      (fun (summary, results) (title, label, _) ->
        let panel = List.filteri (fun i _ -> i < branches) results in
        Fmt.pr "@.--- %s ---@." title;
        print_string (Glitch_emu.Report.outcome_table panel);
        Fmt.pr "@.Success rate by number of flipped bits:@.";
        print_string (Glitch_emu.Report.success_by_weight_table panel);
        Fmt.pr "%s@." (Glitch_emu.Report.summary_line panel);
        ( summary
          @ [ Fmt.str "%s %.1f%%" label
                (Glitch_emu.Report.mean_success_rate panel) ],
          List.filteri (fun i _ -> i >= branches) results ))
      ([], results) fig2_panels
  in
  Fmt.pr "@.Summary: %s@." (String.concat "  " summary);
  Fmt.pr "@.Supplement: skip rates for non-branch instructions (the \"skip@.";
  Fmt.pr "every defensive instruction\" limit case):@.";
  let skip i =
    Fmt.str "%.1f"
      (Glitch_emu.Campaign.category_percent (List.nth supplement i)
         Glitch_emu.Campaign.Success)
  in
  Stats.Table.print ~header:[ "Instr"; "AND skip %"; "OR skip %" ]
    (List.mapi
       (fun i (case : Glitch_emu.Testcase.t) ->
         [ case.name; skip (2 * i); skip ((2 * i) + 1) ])
       Glitch_emu.Testcase.non_branch_cases);
  emit_perf (Glitch_emu.Campaign.perf ~label:"fig2" ?pool results elapsed_s);
  if Option.is_some svc then
    Fmt.pr "cache: %d hit, %d warm, %d miss (%d case(s) executed)@." !hits
      !warms !misses
      (List.fold_left
         (fun n (r : Glitch_emu.Campaign.result) -> n + r.stats.executed)
         0 results);
  paper_note "branches skipped >60%% when flipping to 0, <30%% when flipping to 1;";
  paper_note "making 0x0000 invalid left the success rate 'effectively unchanged'."

(* --- Cross-ISA fault tolerance (extension) --------------------------------- *)

let fig2x ?pool () =
  section "Cross-ISA encoding fault tolerance: Thumb-16 vs RV32I (extension)";
  Fmt.pr
    "The paper hypothesises that ISA changes (e.g. an invalid all-zero@.";
  Fmt.pr
    "word) 'could pay large dividends' but cannot test them without@.";
  Fmt.pr "fabricating silicon. In emulation we can: the same campaign, run@.";
  Fmt.pr "over RISC-V's 32-bit encoding (all-zero/all-one words illegal by@.";
  Fmt.pr "construction, weights sampled at 600 masks each unless the@.";
  Fmt.pr "whole population C(32,k) fits the budget, which is enumerated).@.@.";
  let thumb_rates flip =
    let results =
      List.map
        (Glitch_emu.Campaign.run_case ?pool (Glitch_emu.Campaign.default_config flip))
        Glitch_emu.Testcase.all_conditional_branches
    in
    (Glitch_emu.Report.mean_success_rate results,
     List.fold_left
       (fun acc r ->
         acc
         +. Glitch_emu.Campaign.category_percent r
              Glitch_emu.Campaign.Invalid_instruction)
       0. results
     /. float_of_int (List.length results))
  in
  let riscv_rates flip =
    let results =
      List.map (Riscv.Campaign.run_case flip)
        Riscv.Campaign.all_conditional_branches
    in
    let n = float_of_int (List.length results) in
    ( List.fold_left (fun acc r -> acc +. Riscv.Campaign.success_percent r) 0. results
      /. n,
      List.fold_left
        (fun acc r ->
          acc
          +. Riscv.Campaign.category_percent r
               Glitch_emu.Campaign.Invalid_instruction)
        0. results
      /. n )
  in
  Stats.Table.print
    ~header:
      [ "Fault model"; "Thumb skip %"; "Thumb invalid %"; "RV32I skip %";
        "RV32I invalid %" ]
    (List.map
       (fun flip ->
         let ts, ti = thumb_rates flip in
         let rs, ri = riscv_rates flip in
         [ Glitch_emu.Fault_model.name flip; Fmt.str "%.1f" ts;
           Fmt.str "%.1f" ti; Fmt.str "%.1f" rs; Fmt.str "%.1f" ri ])
       Glitch_emu.Fault_model.all);
  Fmt.pr
    "@.The dense 32-bit encoding turns ~3/4 of corruptions into illegal@.";
  Fmt.pr
    "instructions, cutting branch-skip rates by roughly an order of@.";
  Fmt.pr "magnitude - the paper's ISA-hardening hypothesis, confirmed.@."

(* --- Table I: single glitches per clock cycle ------------------------------ *)

let instruction_listing guard =
  match (guard : Hw.Attack.guard) with
  | Hw.Attack.While_not_a | Hw.Attack.While_a ->
    [| "MOV R3, SP"; "ADDS R3, #7"; "LDRB R3, [R3]"; "  (LDRB cont.)";
       "CMP R3, #0"; "B<cc> .loop"; "  (branch cont.)"; "  (branch cont.)" |]
  | Hw.Attack.While_ne_const ->
    [| "LDR R2, [SP, #16]"; "  (LDR cont.)"; "LDR R3, =0xD3B9AEC6";
       "  (LDR cont.)"; "CMP R2, R3"; "B<cc> .loop"; "  (branch cont.)";
       "  (branch cont.)" |]

let table1 ?pool guards () =
  section "Table I - successful single glitches per clock cycle";
  let sweep = ref Hw.Attack.sweep_zero in
  let (), elapsed_s =
    Stats.Perf.time (fun () ->
  List.iter
    (fun guard ->
      let t = Hw.Attack.run_table1 ?pool guard in
      sweep := Hw.Attack.sweep_add !sweep t.sweep1;
      let listing = instruction_listing guard in
      Fmt.pr "@.--- %s (comparator r%d) ---@."
        (Hw.Attack.guard_name guard)
        (Hw.Attack.comparator guard);
      let total = ref 0 in
      let values_seen = Hashtbl.create 32 in
      let rows =
        Array.to_list
          (Array.mapi
             (fun cycle (c : Hw.Attack.cycle_stats) ->
               total := !total + c.successes;
               List.iter (fun (v, _) -> Hashtbl.replace values_seen v ()) c.values;
               let top =
                 c.values
                 |> List.filteri (fun i _ -> i < 4)
                 |> List.map (fun (v, n) -> Fmt.str "0x%X x%d" v n)
                 |> String.concat "  "
               in
               [ string_of_int cycle; listing.(cycle);
                 string_of_int c.successes; top ])
             t.per_cycle)
      in
      Stats.Table.print
        ~header:[ "Cycle"; "Instruction"; "Successes"; "Comparator values" ]
        rows;
      Fmt.pr "Total: %a, %d unique comparator values@."
        Stats.Rate.pp_count_pct
        (!total, 8 * t.attempts_per_cycle)
        (Hashtbl.length values_seen))
    guards)
  in
  emit_perf (Hw.Attack.sweep_perf ~label:"table1" ?pool !sweep elapsed_s);
  paper_note "totals 0.705%% / 0.347%% / 0.449%%; while(!a) ~2x while(a);";
  paper_note "comparator residues included SP (0x20003FE8) and GPIO mixes."

(* --- Table II: multi-glitch ------------------------------------------------- *)

(* The Table II column prefix of a guard. *)
let short_name = function
  | Hw.Attack.While_not_a -> "!a"
  | Hw.Attack.While_a -> "a"
  | Hw.Attack.While_ne_const -> "ne"

let table2 ?pool guards () =
  section "Table II - partial vs full multi-glitch (two back-to-back loops)";
  let rows, elapsed_s =
    Stats.Perf.time (fun () ->
        List.map
          (fun guard ->
            let t = Hw.Attack.run_table2 ?pool guard in
            let p = Array.fold_left ( + ) 0 t.partial in
            let f = Array.fold_left ( + ) 0 t.full in
            (guard, t, p, f))
          guards)
  in
  let sweep =
    List.fold_left
      (fun acc (_, (t : Hw.Attack.table2), _, _) ->
        Hw.Attack.sweep_add acc t.sweep2)
      Hw.Attack.sweep_zero rows
  in
  Stats.Table.print
    ~header:
      ("Cycle"
      :: List.concat_map
           (fun guard ->
             [ short_name guard ^ " partial"; short_name guard ^ " full" ])
           guards)
    (List.init Hw.Attack.loop_cycles (fun cycle ->
         string_of_int cycle
         :: List.concat_map
              (fun (_, (t : Hw.Attack.table2), _, _) ->
                [ string_of_int t.partial.(cycle); string_of_int t.full.(cycle) ])
              rows));
  List.iter
    (fun (guard, (t : Hw.Attack.table2), p, f) ->
      Fmt.pr "%s: partial %a  full %a  (x%.1f harder)@."
        (Hw.Attack.guard_name guard) Stats.Rate.pp_count_pct (p, t.attempts2)
        Stats.Rate.pp_count_pct (f, t.attempts2)
        (if f = 0 then Float.infinity else float_of_int p /. float_of_int f))
    rows;
  emit_perf (Hw.Attack.sweep_perf ~label:"table2" ?pool sweep elapsed_s);
  paper_note "partial 1.330%% / 0.420%% / 0.413%%, full 0.494%% / 0.068%% / 0.258%%;";
  paper_note "multi-glitch 6x / 3x / 1.6x harder than a single glitch."

(* --- Table III: long glitches ------------------------------------------------ *)

let table3 ?pool guards () =
  section "Table III - long glitches (10-20 contiguous cycles)";
  let results, elapsed_s =
    Stats.Perf.time (fun () ->
        List.map
          (fun guard -> (guard, Hw.Attack.run_table3 ?pool guard))
          guards)
  in
  Stats.Table.print
    ~header:("Cycles" :: List.map Hw.Attack.guard_name guards)
    (List.map
       (fun last ->
         Fmt.str "0-%d" last
         :: List.map
              (fun (_, (t : Hw.Attack.table3)) ->
                string_of_int (List.assoc last t.windows))
              results)
       [ 10; 11; 12; 13; 14; 15; 16; 17; 18; 19; 20 ]);
  List.iter
    (fun (guard, (t : Hw.Attack.table3)) ->
      let total = List.fold_left (fun acc (_, s) -> acc + s) 0 t.windows in
      Fmt.pr "%s: total %a@." (Hw.Attack.guard_name guard)
        Stats.Rate.pp_count_pct
        (total, t.sweep3.attempts))
    results;
  let sweep =
    List.fold_left
      (fun acc (_, (t : Hw.Attack.table3)) -> Hw.Attack.sweep_add acc t.sweep3)
      Hw.Attack.sweep_zero results
  in
  emit_perf (Hw.Attack.sweep_perf ~label:"table3" ?pool sweep elapsed_s);
  paper_note "totals 0.101%% / 0.730%% / 0.0992%%: long glitches help while(a)";
  paper_note "most (aborted loads read zero) and barely help the others."

(* --- tables: sweep-kernel timings for the bench trajectory ------------------- *)

(* Times the three hardware-table sweeps for one guard, sequentially and
   (when --jobs N > 1) in parallel, as the tables-t{1,2,3}-{seq,parN}
   records. The booted/replayed cycle counters quantify how much
   emulation the snapshot-replay kernel avoids; the parallel leg is
   checked bit-identical to the sequential one. *)
let tables ?pool () =
  section "tables - Table I-III sweep kernel";
  let guard = Hw.Attack.While_not_a in
  let leg name pool =
    let timed n run sweep =
      let t, elapsed_s = Stats.Perf.time run in
      emit_perf
        (Hw.Attack.sweep_perf
           ~label:(Fmt.str "tables-t%d-%s" n name)
           ?pool (sweep t) elapsed_s);
      t
    in
    let t1 =
      timed 1 (fun () -> Hw.Attack.run_table1 ?pool guard) (fun t -> t.Hw.Attack.sweep1)
    in
    let t2 =
      timed 2 (fun () -> Hw.Attack.run_table2 ?pool guard) (fun t -> t.Hw.Attack.sweep2)
    in
    let t3 =
      timed 3 (fun () -> Hw.Attack.run_table3 ?pool guard) (fun t -> t.Hw.Attack.sweep3)
    in
    (t1, t2, t3)
  in
  let s1, s2, s3 = leg "seq" None in
  (match pool with
  | Some p when Runtime.Pool.jobs p > 1 ->
    let jobs = Runtime.Pool.jobs p in
    let q1, q2, q3 = leg (Fmt.str "par%d" jobs) pool in
    let same =
      s1.Hw.Attack.per_cycle = q1.Hw.Attack.per_cycle
      && s2.Hw.Attack.partial = q2.Hw.Attack.partial
      && s2.Hw.Attack.full = q2.Hw.Attack.full
      && s3.Hw.Attack.windows = q3.Hw.Attack.windows
    in
    if same then
      Fmt.pr "@.parallel (%d jobs) == sequential: tables bit-identical@." jobs
    else Fmt.pr "@.WARNING: parallel tables diverge from the sequential run@."
  | Some _ | None -> ())

(* --- scaling: the fig2 sweep kernel across a jobs ladder ---------------------- *)

(* Runs Figure 2's 62 sweeps, quietly, at --jobs 1, 2, 4 and 8 (a fresh
   pool per leg), checks every leg's tables bit-identical to the
   sequential one, and records all four legs as "fig2" rows. Each
   distinct word is run by one worker, so the executed counter is the
   same at every job count — that counter parity, not wall-clock on a
   core-starved CI container, is the evidence that no leg duplicates
   work. *)
let scaling () =
  section "scaling - fig2 sweep kernel at --jobs 1,2,4,8";
  let leg jobs =
    Runtime.Pool.with_pool ~jobs (fun pool ->
        let results, elapsed_s =
          Stats.Perf.time (fun () ->
              List.map
                (fun (config, case) ->
                  Glitch_emu.Campaign.run_case ~pool config case)
                fig2_sweeps)
        in
        emit_perf (Glitch_emu.Campaign.perf ~label:"fig2" ~pool results elapsed_s);
        results)
  in
  let baseline = leg 1 in
  let identical =
    List.for_all
      (fun jobs ->
        List.for_all2
          (fun (a : Glitch_emu.Campaign.result)
               (b : Glitch_emu.Campaign.result) ->
            a.by_weight = b.by_weight && a.totals = b.totals)
          baseline (leg jobs))
      [ 2; 4; 8 ]
  in
  if identical then
    Fmt.pr "@.tables bit-identical across --jobs 1, 2, 4, 8@."
  else Fmt.pr "@.WARNING: tables diverge across job counts@."

(* --- exhaust: trace-wide campaign across a jobs ladder ------------------------- *)

(* The exhaust spec of the guard-loop firmware built with [defenses]. *)
let guard_loop_spec defenses =
  let compiled = Resistor.Driver.compile defenses Resistor.Firmware.guard_loop in
  Exhaust.Campaign.spec_of_image ~name:"guard_loop" compiled.image

(* One timed campaign on a fresh pool of [jobs], recorded as [label]. *)
let exhaust_leg ~label ~jobs spec config =
  Runtime.Pool.with_pool ~jobs (fun pool ->
      let result, elapsed_s =
        Stats.Perf.time (fun () -> Exhaust.Campaign.run ~pool spec config)
      in
      emit_perf (Exhaust.Campaign.perf ~label ~pool result elapsed_s);
      result)

(* The whole-image exhaustive injector on the undefended guard-loop
   firmware at --jobs 1, 2, 4, 8 (a fresh pool per leg). Every leg's
   per-function verdict tables are checked bit-identical to the
   sequential one — the pruning all flows through one shared state map,
   so the only schedule-dependent number is the pruned/executed split
   (two workers racing a cold state both execute it). The PERF rows
   carry the pruned counters. *)
let exhaust_bench () =
  section "exhaust - trace-wide fault campaign at --jobs 1,2,4,8";
  let spec = guard_loop_spec Resistor.Config.none in
  let leg jobs =
    exhaust_leg ~label:"exhaust" ~jobs spec (Exhaust.Campaign.default_config ())
  in
  let base = leg 1 in
  Fmt.pr
    "@.%d injection points over %d cycles: %d faulted at the injected step,@."
    base.Exhaust.Campaign.points base.trace_steps base.faulted;
  Fmt.pr "%d continuations executed, %d pruned (%.1f%% shared), %d distinct states@."
    base.executed base.pruned
    (100. *. Exhaust.Campaign.prune_rate base)
    base.states;
  let identical =
    List.for_all
      (fun jobs ->
        let r = leg jobs in
        r.Exhaust.Campaign.rows = base.rows
        && r.totals = base.totals && r.points = base.points
        && r.faulted = base.faulted && r.states = base.states)
      [ 2; 4; 8 ]
  in
  if identical then
    Fmt.pr "@.verdict tables bit-identical across --jobs 1, 2, 4, 8@."
  else Fmt.pr "@.WARNING: verdict tables diverge across job counts@."

(* --- absint: static pre-pruner + fault-flow prover ----------------------------- *)

(* The abstract-interpretation layer end to end: the static pre-pruner
   share of the guard-loop exhaust workload (with a jobs-1/4 parity
   check — the statically proven verdicts are computed before any
   worker runs, so the split is deterministic), the same floor on the
   fig2 conditional-branch workload, the fault-flow
   prover's wall time on the defended and undefended builds, and the
   reachability-weighted agreement concordance next to the unweighted
   one. *)
let absint_bench () =
  section "absint - static pre-pruner + fault-flow prover";
  (* static pre-pruner on the guard-loop exhaust workload *)
  let spec = guard_loop_spec Resistor.Config.none in
  let config =
    { (Exhaust.Campaign.default_config ()) with
      Exhaust.Campaign.max_trace = 256;
      settle_steps = Some 64;
      static_prune = true }
  in
  let plain =
    exhaust_leg ~label:"absint-off" ~jobs:1 spec
      { config with Exhaust.Campaign.static_prune = false }
  in
  let seq = exhaust_leg ~label:"absint-static" ~jobs:1 spec config in
  let par = exhaust_leg ~label:"absint-static" ~jobs:4 spec config in
  Fmt.pr
    "@.static pre-pruner: %d of %d points proven without emulation \
     (%d executed vs %d without it)@."
    seq.Exhaust.Campaign.static_pruned seq.points seq.executed plain.executed;
  if seq.Exhaust.Campaign.static_pruned > 0 then
    Fmt.pr "static pre-pruner floor holds: static_pruned > 0@."
  else Fmt.pr "WARNING: static pre-pruner proved nothing on guard_loop@.";
  if
    seq.Exhaust.Campaign.rows = par.Exhaust.Campaign.rows
    && seq.totals = par.totals && seq.verdicts = par.verdicts
    && seq.static_pruned = par.static_pruned
  then Fmt.pr "verdict tables bit-identical at --jobs 1 and 4@."
  else Fmt.pr "WARNING: static-pruned tables diverge across job counts@.";
  (* the fig2 conditional-branch workload: a terminating baseline *)
  let case = Glitch_emu.Testcase.conditional_branch Thumb.Instr.EQ in
  let fig2_spec = Exhaust.Campaign.spec_of_case case in
  let fig2_config =
    { (Exhaust.Campaign.default_config ()) with
      Exhaust.Campaign.max_trace = 64;
      static_prune = true }
  in
  let fig2, elapsed_s =
    Stats.Perf.time (fun () -> Exhaust.Campaign.run fig2_spec fig2_config)
  in
  emit_perf (Exhaust.Campaign.perf ~label:"absint-fig2" fig2 elapsed_s);
  if fig2.Exhaust.Campaign.static_pruned > 0 then
    Fmt.pr "@.fig2 workload floor holds: static_pruned = %d > 0@."
      fig2.Exhaust.Campaign.static_pruned
  else Fmt.pr "@.WARNING: static pre-pruner proved nothing on fig2 workload@.";
  (* fault-flow prover wall time, both builds *)
  let prove label defenses =
    let compiled = Resistor.Driver.compile defenses Resistor.Firmware.guard_loop in
    let report, elapsed_s =
      Stats.Perf.time (fun () ->
          Absint.Prove.run ~reports:compiled.Resistor.Driver.reports
            ~modul:compiled.Resistor.Driver.modul compiled.Resistor.Driver.image)
    in
    emit_perf
      (Stats.Perf.make ~label ~items:report.Absint.Prove.scenarios [] elapsed_s);
    Fmt.pr
      "%s: %d/%d guards reached, %d proven, %d escaping, %d unproven@." label
      report.Absint.Prove.guards_reached report.Absint.Prove.guards_total
      report.proven report.escapes report.unproven;
    report
  in
  let undef = prove "prove-undefended" Resistor.Config.none in
  let def =
    prove "prove-defended" (Resistor.Config.all_but_delay ~sensitive:[ "a" ] ())
  in
  if undef.Absint.Prove.escapes > 0 && Absint.Prove.errors def = [] then
    Fmt.pr "prover floors hold: undefended escapes, defended audit clean@."
  else Fmt.pr "WARNING: prover floors violated@.";
  (* reachability-weighted agreement on the fully defended build *)
  let compiled =
    Resistor.Driver.compile
      (Resistor.Config.all ~sensitive:[ "a" ] ())
      Resistor.Firmware.guard_loop
  in
  let spec = Exhaust.Campaign.spec_of_image ~name:"guard_loop" compiled.image in
  let config = Exhaust.Campaign.default_config () in
  let result = Exhaust.Campaign.run spec config in
  let baseline, _ = Exhaust.Campaign.baseline spec config in
  let surface =
    Analysis.Surface.analyze (Analysis.Cfg.of_image compiled.image)
  in
  let agreement = Exhaust.Agreement.of_result ~baseline surface result in
  Fmt.pr
    "@.agreement on the fully defended build: weighted concordance %.0f%%, \
     unweighted %.0f%%@."
    (100. *. agreement.Exhaust.Agreement.concordance)
    (100. *. agreement.Exhaust.Agreement.concordance_unweighted);
  if agreement.Exhaust.Agreement.concordance > 0.5 then
    Fmt.pr "agreement floor holds: weighted concordance > 50%%@."
  else Fmt.pr "WARNING: weighted concordance did not beat 50%%@."

(* --- Section V-B: locating optimal parameters --------------------------------- *)

let tuner guards () =
  section "Section V-B - search for 100% reliable glitch parameters";
  List.iter
    (fun guard ->
      let r = Hw.Tuner.search guard in
      (match r.found with
      | Some (w, o, c) ->
        Fmt.pr
          "%s: width=%d offset=%d cycle=%d after %d attempts (%d successes), ~%.0f simulated minutes@."
          (Hw.Attack.guard_name guard) w o c r.attempts r.successes
          (r.seconds /. 60.)
      | None ->
        Fmt.pr "%s: no fully reliable parameters found (%d attempts)@."
          (Hw.Attack.guard_name guard) r.attempts);
      Fmt.pr "  %d cycles emulated, %d served by snapshot replay@."
        r.emulated_cycles r.replayed_cycles)
    guards;
  paper_note "while(a) converged in <59 min (7,031/36,869 successes);";
  paper_note "while(a!=0xD3B9AEC6) in 16 min (901 successes)."

(* --- Tables IV and V: overhead -------------------------------------------------- *)

(* The "None" row and every row, compiled and booted once for whichever
   of table4, table5 and defenses asks first. *)
let overhead_rows =
  lazy
    (let rows = Resistor.Overhead.all_rows () in
     (List.find (fun (r : Resistor.Overhead.row) -> r.label = "None") rows, rows))

let table4 () =
  section "Table IV - boot-time overhead per defense (cycles)";
  let base, rows = Lazy.force overhead_rows in
  let baseline = base.boot_cycles in
  Stats.Table.print
    ~header:[ "Defense"; "Clock cycles"; "% increase"; "Constant"; "% adjusted" ]
    (List.map
       (fun (r : Resistor.Overhead.row) ->
         let constant =
           if r.label = "Delay" || r.label = "All" then
             Resistor.Overhead.flash_commit_cycles
           else 0
         in
         let adj = r.boot_cycles - constant in
         [ r.label; string_of_int r.boot_cycles;
           Fmt.str "%.2f%%"
             (100.
             *. float_of_int (r.boot_cycles - baseline)
             /. float_of_int baseline);
           string_of_int constant;
           Fmt.str "%.2f%%"
             (100. *. float_of_int (adj - baseline) /. float_of_int baseline) ])
       rows);
  paper_note "None 1,736 cycles; Branches +11.35%%; Delay +10,521%% (constant";
  paper_note "177,849 cycles for the flash seed write, +277%% adjusted); others <1%%."

let table5 () =
  section "Table V - size overhead per defense (bytes)";
  let base, rows = Lazy.force overhead_rows in
  Stats.Table.print
    ~header:[ "Defense"; "text"; "text %"; "data"; "bss"; "total"; "total %" ]
    (List.map
       (fun (r : Resistor.Overhead.row) ->
         [ r.label; string_of_int r.text_bytes;
           Fmt.str "%.2f%%"
             (100.
             *. float_of_int (r.text_bytes - base.text_bytes)
             /. float_of_int base.text_bytes);
           string_of_int r.data_bytes; string_of_int r.bss_bytes;
           string_of_int r.total_bytes;
           Fmt.str "%.2f%%"
             (100.
             *. float_of_int (r.total_bytes - base.total_bytes)
             /. float_of_int base.total_bytes) ])
       rows);
  paper_note "All +33%% total, All\\Delay +15%%, Returns ~0%%: the ordering to match."

(* --- Table VI: defended firmware under attack ------------------------------------ *)

let table6 ?pool ~quick () =
  section "Table VI - glitches and detections against defended firmware";
  let sweep_step = if quick then 4 else 1 in
  if quick then
    Fmt.pr "(quick mode: every 4th parameter point; counts scale by ~1/16)@.";
  let scenarios = Resistor.Evaluate.[ Worst_case; Best_case ] in
  let attacks = Resistor.Evaluate.[ Single; Long; Windowed ] in
  let sweep = ref Hw.Attack.sweep_zero in
  let configs =
    [ ("All", Resistor.Config.all ~sensitive:[ "a" ] ());
      ("All\\Delay", Resistor.Config.all_but_delay ~sensitive:[ "a" ] ());
      ("None (reference)", Resistor.Config.none) ]
  in
  let (), elapsed_s =
    Stats.Perf.time (fun () ->
  List.iter
    (fun scenario ->
      Fmt.pr "@.--- %s ---@." (Resistor.Evaluate.scenario_name scenario);
      Stats.Table.print
        ~header:
          [ "Attack"; "Defenses"; "Attempts"; "Successes"; "Success %";
            "Detections"; "Detection %" ]
        (List.concat_map
           (fun attack ->
             List.map
               (fun (label, config) ->
                 let o =
                   Resistor.Evaluate.run ?pool ~sweep_step config scenario attack
                 in
                 sweep := Hw.Attack.sweep_add !sweep o.sweep;
                 [ Resistor.Evaluate.attack_name attack; label;
                   string_of_int o.attempts; string_of_int o.successes;
                   Fmt.str "%a" Stats.Rate.pp_pct
                     (Resistor.Evaluate.success_rate o);
                   string_of_int o.detections;
                   Fmt.str "%a" Stats.Rate.pp_pct
                     (Resistor.Evaluate.detection_rate o) ])
               configs)
           attacks))
    scenarios)
  in
  emit_perf (Hw.Attack.sweep_perf ~label:"table6" ?pool !sweep elapsed_s);
  paper_note "while(!a): single 0.00928%%/0.00371%% success, 98-100%% detected;";
  paper_note "long 0.263%%/0.267%% success with 79.2%%/71.2%% detection;";
  paper_note "if(a==SUCCESS): best attack 0.00557%% (All) / 0.0449%% (All\\Delay)."

(* --- Ablation: which defense stops what ------------------------------------------- *)

(* An efficacy row's label: the configuration's name, except that the
   CFCSS baseline keeps its Table VII caption. *)
let efficacy_label (config : Resistor.Config.t) =
  if List.mem Resistor.Config.Cfcss config.defenses then "CFCSS (baseline)"
  else Resistor.Config.name config

let efficacy_header first =
  [ first; "Single succ"; "Single det"; "Windowed succ"; "Windowed det" ]

(* Single and windowed-10 sweeps of [image]: its efficacy-table row
   after [label], and the attempts made. *)
let efficacy_row ?pool ~sweep_step label image =
  let sweep = Resistor.Evaluate.run_image ?pool ~sweep_step image in
  let single = sweep Resistor.Evaluate.Single in
  let windowed = sweep Resistor.Evaluate.Windowed in
  let cells (o : Resistor.Evaluate.outcome) =
    [ Fmt.str "%d (%a)" o.successes Stats.Rate.pp_pct
        (Resistor.Evaluate.success_rate o);
      string_of_int o.detections ]
  in
  ((label :: cells single) @ cells windowed, single.attempts + windowed.attempts)

let ablation ?pool ~quick () =
  section "Ablation - per-defense efficacy against while(!a) (extension)";
  let sweep_step = if quick then 4 else 2 in
  Fmt.pr "(every %dth parameter point; single + windowed-10 attacks)@." sweep_step;
  let sensitive = [ "a" ] in
  let source = Resistor.Evaluate.scenario_source Resistor.Evaluate.Worst_case in
  let images =
    List.map
      (fun config ->
        (efficacy_label config, (Resistor.Driver.compile config source).image))
      Resistor.Config.
        [ none; make [ Branches ]; make [ Loops ]; make [ Branches; Loops ];
          make ~sensitive [ Integrity ]; make [ Delay ];
          all_but_delay ~sensitive (); all ~sensitive (); make [ Cfcss ] ]
  in
  Stats.Table.print ~header:(efficacy_header "Defenses")
    (List.map
       (fun (label, image) -> fst (efficacy_row ?pool ~sweep_step label image))
       images);
  Fmt.pr "@.Reading the ablation:@.";
  Fmt.pr "- Branches alone barely helps: a loop escape leaves on the FALSE@.";
  Fmt.pr "  edge, which only the Loops pass re-checks (the paper's rationale@.";
  Fmt.pr "  for instrumenting both).@.";
  Fmt.pr "- Integrity kills the register/data-corruption vector: the shadow@.";
  Fmt.pr "  complement no longer matches a corrupted comparator.@.";
  Fmt.pr "- Delay displaces the guard out of the attacker's trigger-relative@.";
  Fmt.pr "  window without detecting anything, exactly its design goal.@.";
  Fmt.pr "- CFCSS (the executable Table VII baseline) detects arrivals along@.";
  Fmt.pr "  illegal edges and dilates the code, but it cannot re-check the@.";
  Fmt.pr "  DIRECTION of a legal branch - the complemented duplication@.";
  Fmt.pr "  checks remain GlitchResistor's differentiator.@."

(* --- defenses: CFI backend overhead + efficacy ------------------------------------- *)

(* The two post-paper CFI backends (Sigcfi = FIPAC-style running
   signature, Domains = SCRAMBLE-CFI-style keyed clusters) measured the
   same way as the paper's rows: Table IV/V overhead on boot_tick, then
   the worst-case guard swept with 1/2-bit corruption next to the CFCSS
   and None baselines. One PERF record per efficacy row
   (defenses-<slug>); [items] counts sweep attempts. *)
let defenses ?pool ~quick () =
  section "defenses - CFI backend overhead + efficacy";
  let base, rows = Lazy.force overhead_rows in
  let rows =
    List.filter
      (fun (r : Resistor.Overhead.row) ->
        r == base || List.mem_assoc r.label Resistor.Overhead.cfi_configurations)
      rows
  in
  let pct v b =
    Fmt.str "%.2f%%" (100. *. float_of_int (v - b) /. float_of_int b)
  in
  Stats.Table.print
    ~header:[ "Defense"; "Boot cycles"; "cycles %"; "total bytes"; "bytes %" ]
    (List.map
       (fun (r : Resistor.Overhead.row) ->
         [ r.label; string_of_int r.boot_cycles;
           pct r.boot_cycles base.boot_cycles;
           string_of_int r.total_bytes;
           pct r.total_bytes base.total_bytes ])
       rows);
  let sweep_step = if quick then 4 else 2 in
  Fmt.pr "@.(every %dth parameter point; single + windowed-10 attacks)@."
    sweep_step;
  let sensitive = [ "a" ] in
  let source = Resistor.Evaluate.scenario_source Resistor.Evaluate.Worst_case in
  let compile config = (Resistor.Driver.compile config source).image in
  let images =
    List.map
      (fun slug ->
        let config = Resistor.Config.set ~sensitive slug in
        (efficacy_label config, slug, compile config))
      [ "none"; "sigcfi"; "domains"; "cfi"; "all-cfi"; "cfcss" ]
  in
  Stats.Table.print ~header:(efficacy_header "Defense")
    (List.map
       (fun (label, slug, image) ->
         let (row, attempts), elapsed_s =
           Stats.Perf.time (fun () ->
               efficacy_row ?pool ~sweep_step label image)
         in
         emit_perf
           (Stats.Perf.make ~label:("defenses-" ^ slug) ?pool ~items:attempts
              [] elapsed_s);
         row)
       images);
  Fmt.pr "@.Reading the CFI rows:@.";
  Fmt.pr "- Both backends detect illegal-edge arrivals (a skipped guard@.";
  Fmt.pr "  lands mid-chain with a stale signature / foreign domain key),@.";
  Fmt.pr "  but neither re-checks the DIRECTION of a legal branch - the@.";
  Fmt.pr "  Table VII residue the complemented duplication checks cover.@.";
  Fmt.pr "- Stacked on All\\Delay they close that gap at roughly the CFCSS@.";
  Fmt.pr "  dilation cost.@."

(* --- Table VII: qualitative comparison -------------------------------------------- *)

let table7 () =
  section "Table VII - software-based defense comparison";
  print_string (Resistor.Compare.render ());
  paper_note "GlitchResistor is the only technique with every property."

(* --- analysis: static glitch-surface analyzer timings -------------------------- *)

(* Times CFG recovery + the 1/2-bit static surface sweep + the defense
   audit over the firmware suite, undefended and fully defended, as the
   analysis-<firmware>-<defenses> records. [items] counts the
   perturbations classified (136 per reachable instruction). *)
let analysis () =
  section "analysis - static glitch surface and defense audit";
  let lint name config source =
    let report, elapsed_s =
      Stats.Perf.time (fun () ->
          Analysis.Lint.run
            (Analysis.Lint.of_compiled (Resistor.Driver.compile config source)))
    in
    let surface = report.Analysis.Lint.surface in
    emit_perf
      (Stats.Perf.make ~label:("analysis-" ^ name)
         ~items:surface.Analysis.Surface.total_flips [] elapsed_s);
    Fmt.pr "  %s: %d error(s), %d warning(s), %d instruction(s), %.1f%% control@."
      name
      (Analysis.Lint.count Analysis.Lint.Error report)
      (Analysis.Lint.count Analysis.Lint.Warning report)
      (List.length surface.Analysis.Surface.profiles)
      (100. *. surface.Analysis.Surface.image_score);
    report
  in
  let undef = lint "guard-loop-none" Resistor.Config.none Resistor.Firmware.guard_loop in
  let def =
    lint "guard-loop-all"
      (Resistor.Config.all ~sensitive:[ "a" ] ())
      Resistor.Firmware.guard_loop
  in
  ignore (lint "boot-tick-none" Resistor.Config.none Resistor.Firmware.boot_tick);
  ignore
    (lint "boot-tick-all"
       (Resistor.Config.all ~sensitive:[ "tick" ] ())
       Resistor.Firmware.boot_tick);
  Fmt.pr "@.undefended guard-loop errors: %d (expected > 0); defended: %d \
          (expected 0)@."
    (List.length (Analysis.Lint.errors undef))
    (List.length (Analysis.Lint.errors def))

(* --- fuzz: randomized differential testing throughput ------------------------- *)

(* One bounded fixed-seed batch per property family; [items] counts the
   generated programs, so the PERF rate reads as programs/second, and
   [executed] counts the programs actually checked (the rest were
   skipped). *)
let fuzz ~quick () =
  section "fuzz - randomized differential defense testing";
  let count = if quick then 10 else 60 in
  let seed = 42 in
  List.iter
    (fun family ->
      let name = Gen.Fuzz.family_name family in
      let summary, elapsed_s =
        Stats.Perf.time (fun () ->
            Gen.Fuzz.run ~families:[ family ] ~count ~seed ())
      in
      let run = List.hd summary.Gen.Fuzz.runs in
      emit_perf
        (Stats.Perf.make ~label:("fuzz-" ^ name) ~items:count
           [ ("executed", Stats.Perf.Count run.Gen.Fuzz.checked) ]
           elapsed_s);
      Fmt.pr "  %-14s %d generated, %d checked, %d skipped: %s@." name count
        run.Gen.Fuzz.checked run.Gen.Fuzz.skipped
        (match run.Gen.Fuzz.failure with
        | None -> "pass"
        | Some f -> "FAIL: " ^ f.Gen.Fuzz.message))
    Gen.Fuzz.all_families

(* --- Bechamel micro-benchmarks ------------------------------------------------------ *)

let micro () =
  section "Micro-benchmarks (Bechamel): cost of each experiment's inner loop";
  let open Bechamel in
  let beq_case = Glitch_emu.Testcase.conditional_branch Thumb.Instr.EQ in
  let emu_config = Glitch_emu.Campaign.default_config Glitch_emu.Fault_model.And in
  let board =
    Hw.Board.create
      (Hw.Board.Asm (Hw.Attack.single_loop_program Hw.Attack.While_not_a))
  in
  let image =
    (Resistor.Driver.compile
       (Resistor.Config.all ~sensitive:[ "a" ] ())
       Resistor.Firmware.guard_loop)
      .image
  in
  let defended_board = Hw.Board.create (Hw.Board.Image image) in
  ignore (Hw.Board.run_until_trigger defended_board);
  let snap = Hw.Board.snapshot defended_board in
  let msg = Array.init 16 (fun i -> i * 7 land 0xFF) in
  let code = Reedsolomon.Rs.encode ~ecc_len:8 msg in
  let tests =
    [ Test.make ~name:"fig2: one perturbed execution"
        (Staged.stage (fun () ->
             ignore (Glitch_emu.Campaign.run_one emu_config beq_case ~mask:0x0100)));
      Test.make ~name:"table1: one glitch attempt"
        (Staged.stage (fun () ->
             ignore
               (Hw.Glitcher.run ~max_cycles:300 board
                  [ Hw.Glitcher.single ~width:(-10) ~offset:5 ~ext_offset:4 ])));
      Test.make ~name:"table6: one defended attempt (snapshot restore)"
        (Staged.stage (fun () ->
             ignore
               (Hw.Glitcher.run ~max_cycles:5000 ~from:snap defended_board
                  [ Hw.Glitcher.single ~width:(-10) ~offset:5 ~ext_offset:4 ])));
      Test.make ~name:"table4/5: compile+link defended firmware"
        (Staged.stage (fun () ->
             ignore
               (Resistor.Driver.compile
                  (Resistor.Config.all_but_delay ~sensitive:[ "a" ] ())
                  Resistor.Firmware.guard_loop)));
      Test.make ~name:"substrate: thumb decode (64k words)"
        (Staged.stage (fun () ->
             for w = 0 to 0xFFFF do
               ignore (Thumb.Decode.instr w)
             done));
      Test.make ~name:"substrate: RS encode+decode (16B msg, ecc 8)"
        (Staged.stage (fun () ->
             let received = Array.copy code in
             received.(3) <- received.(3) lxor 0x5A;
             match Reedsolomon.Rs.decode ~ecc_len:8 received with
             | Ok _ -> ()
             | Error _ -> assert false)) ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:None () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| "run" |])
          Toolkit.Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ ns ] -> Fmt.pr "  %-48s %12.1f ns/run@." name ns
          | Some _ | None -> Fmt.pr "  %-48s (no estimate)@." name)
        ols)
    tests

(* --- driver ---------------------------------------------------------------------------- *)

let experiments ~quick ?cache ?pool () =
  let guards = Hw.Attack.all_guards in
  [ ("fig2", fig2 ?pool ?cache); ("fig2x", fig2x ?pool);
    ("table1", table1 ?pool guards);
    ("table2", table2 ?pool guards); ("table3", table3 ?pool guards);
    ("tables", tables ?pool); ("scaling", scaling);
    ("exhaust", exhaust_bench); ("absint", absint_bench);
    ("tuner", tuner guards);
    ("table4", table4); ("table5", table5);
    ("table6", table6 ?pool ~quick); ("table7", table7);
    ("ablation", ablation ?pool ~quick);
    ("defenses", defenses ?pool ~quick); ("analysis", analysis);
    ("fuzz", fuzz ~quick); ("micro", micro) ]

let names = List.map fst (experiments ~quick:false ())

(* what a bare run (or "all") regenerates *)
let all =
  [ "fig2"; "fig2x"; "table1"; "table2"; "table3"; "tuner"; "table4"; "table5";
    "table6"; "table7"; "ablation"; "defenses"; "analysis"; "fuzz"; "micro" ]

(* Runs the named experiments in order ("all" expands to [all], and so
   does an empty list) on one pool, then writes BENCH.json. *)
let run ~quick ?cache ~jobs names =
  let names =
    match List.concat_map (function "all" -> all | n -> [ n ]) names with
    | [] -> all
    | names -> names
  in
  Runtime.Pool.with_pool ~jobs (fun pool ->
      let experiments = experiments ~quick ?cache ~pool () in
      List.iter (fun name -> (List.assoc name experiments) ()) names);
  write_bench_json ()
