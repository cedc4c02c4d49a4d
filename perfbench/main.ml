(* The repository benchmark: four fixed campaign workloads, run from one
   process through the public entry points of Glitch_emu, Exhaust, Hw
   and Resistor, all at --jobs 1.

     main.exe --workload fig2 --seed 1 --seconds 20 --trace 0
     main.exe --workload all --seed 1 --seconds 20 --trace 0
     main.exe --smoke

   --trace 0 measures the end-to-end metrics (wall_s, items_per_s,
   setup_s, peak_rss_mb) with no instrumentation. --trace 1 is a separate
   run that times the calls into each layer from this file, replays
   probes on the workload's baseline trace, and reports the per-layer
   metrics. Either way every campaign output is compared with values
   frozen from a reference run (expected.ml); the seed picks only the
   oracle spot-check samples, never the workload inputs. The last stdout
   line is one JSON object; any failed check makes the exit code 1.
   --smoke runs every workload once, reduced, through the same checks. *)

open Printf

(* --- clock and statistics ------------------------------------------------ *)

let now () = Monotonic_clock.now ()
let since t0 = Int64.to_float (Int64.sub (now ()) t0) *. 1e-9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, since t0)

let sorted xs = Array.of_list (List.sort compare xs)

let median = function
  | [] -> 0.
  | xs ->
    let a = sorted xs in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* nearest-rank percentile *)
let percentile q = function
  | [] -> 0.
  | xs ->
    let a = sorted xs in
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

let peak_rss_mb () =
  let from_proc =
    try
      In_channel.with_open_text "/proc/self/status" In_channel.input_all
      |> String.split_on_char '\n'
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmHWM"; v ] ->
               Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> fi kb /. 1024.)
             | _ -> None)
    with Sys_error _ -> None
  in
  match from_proc with
  | Some mb -> mb
  | None -> fi ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* --- output checks ---------------------------------------------------------- *)

let attempted = ref 0
let failed = ref 0

let check label ok ~detail =
  incr attempted;
  if not ok then begin
    incr failed;
    eprintf "output check failed: %s: %s\n%!" label (detail ())
  end

(* An output compared with its frozen value in Expected; [context]
   names the leg when a re-run is checked against the same value. *)
let check_frozen ?(context = "") label actual =
  let expected = List.assoc_opt label Expected.values in
  check (label ^ context) (expected = Some actual) ~detail:(fun () ->
      sprintf "expected %s, got %s"
        (Option.value expected ~default:"(no frozen value)")
        actual)

let ints a = String.concat "," (List.map string_of_int a)
let digest s = Digest.to_hex (Digest.string s)

(* --- tracing ------------------------------------------------------------------- *)

(* Spans live in memory, keyed by name: call count, per-call durations
   and the minor-heap words the calls allocated. Only calls made from
   this file are timed; the libraries carry no instrumentation. *)
type span = { mutable calls : int; mutable durations : float list; mutable words : float }

let spans : (string, span) Hashtbl.t = Hashtbl.create 32
let tracing = ref false

(* seconds covered by spans since the last reset: a traced pass wraps
   only top-level campaign calls, so this is the pass's covered time *)
let span_seconds = ref 0.

let traced_passes = ref 0

let record name ~calls ~seconds ~words =
  let s =
    match Hashtbl.find_opt spans name with
    | Some s -> s
    | None ->
      let s = { calls = 0; durations = []; words = 0. } in
      Hashtbl.add spans name s;
      s
  in
  s.calls <- s.calls + calls;
  s.durations <- seconds :: s.durations;
  s.words <- s.words +. words;
  span_seconds := !span_seconds +. seconds

let span name f =
  if not !tracing then f ()
  else begin
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let r = f () in
    let seconds = since t0 in
    record name ~calls:1 ~seconds ~words:(Gc.minor_words () -. w0);
    r
  end

(* Time [f] over [calls] calls as one batch. *)
let record_batch name ~calls f =
  let w0 = Gc.minor_words () in
  let (), seconds = timed f in
  record name ~calls ~seconds ~words:(Gc.minor_words () -. w0);
  seconds

let span_get name = Hashtbl.find_opt spans name
let span_sum name = match span_get name with Some s -> List.fold_left ( +. ) 0. s.durations | None -> 0.
let span_durations name = match span_get name with Some s -> s.durations | None -> []
let span_median name = median (span_durations name)

let span_per_call name =
  match span_get name with Some s -> ratio (span_sum name) (fi s.calls) | None -> 0.

let span_words name =
  match span_get name with Some s -> ratio s.words (fi s.calls) | None -> 0.

(* --- metrics ----------------------------------------------------------------- *)

let end_to_end =
  [ ("wall_s", "s"); ("items_per_s", "items/s"); ("setup_s", "s"); ("peak_rss_mb", "MiB") ]

(* Every per-layer metric, reported by every traced run; a layer the
   workload does not cross reads 0. *)
let per_layer =
  [ ("glitch_emu.run_case.s", "s"); ("glitch_emu.run_case.p50_ms", "ms");
    ("glitch_emu.run_case.p80_ms", "ms"); ("glitch_emu.run_case.minor_words", "words");
    ("glitch_emu.executed", "count"); ("glitch_emu.memoized", "count");
    ("runtime.store.hit_rate", "ratio"); ("glitch_emu.us_per_executed", "us");
    ("resistor.compile.s", "s"); ("resistor.compile.minor_words", "words");
    ("lower.image_bytes", "bytes");
    ("exhaust.baseline.s", "s"); ("exhaust.baseline.minor_words", "words");
    ("exhaust.run.s", "s"); ("exhaust.run.minor_words", "words");
    ("exhaust.inject.s", "s");
    ("exhaust.points", "count"); ("exhaust.faulted", "count");
    ("exhaust.executed", "count"); ("exhaust.pruned", "count");
    ("exhaust.static_pruned", "count"); ("exhaust.states", "count");
    ("exhaust.state.key.ns", "ns"); ("exhaust.state.key.minor_words", "words");
    ("exhaust.state.key_bytes", "bytes"); ("exhaust.state.touched_bytes", "bytes");
    ("runtime.keymap.find.ns", "ns"); ("runtime.keymap.find.minor_words", "words");
    ("runtime.keymap.add.ns", "ns"); ("runtime.keymap.add.minor_words", "words");
    ("runtime.keymap.hit_rate", "ratio");
    ("machine.exec.ns", "ns"); ("machine.exec.minor_words", "words");
    ("exhaust.emulate.us", "us"); ("exhaust.nonemu.s", "s");
    ("absint.prune.share", "ratio"); ("absint.prune.net_s", "s");
    ("absint.prune.prove_s", "s");
    ("hw.boot.s", "s"); ("hw.boot.minor_words", "words");
    ("hw.table1.s", "s"); ("hw.table1.minor_words", "words");
    ("hw.table2.s", "s"); ("hw.table2.minor_words", "words");
    ("hw.table3.s", "s"); ("hw.table3.minor_words", "words");
    ("hw.attempts", "count"); ("hw.emulated_cycles", "count");
    ("hw.replayed_cycles", "count"); ("hw.replay_rate", "ratio");
    ("hw.ns_per_emulated_cycle", "ns");
    ("hw.board.restore.us", "us"); ("hw.board.restore.minor_words", "words");
    ("hw.board.step.ns", "ns"); ("hw.board.step.minor_words", "words");
    ("runtime.pool.wait_s", "s"); ("runtime.pool.utilization", "ratio");
    ("exhaust.jobs2_speedup", "ratio");
    ("trace.overhead", "ratio"); ("trace.unaccounted_s", "s");
    ("gc.major_collections", "count"); ("gc.minor_mwords", "Mwords");
    ("failed_ratio", "ratio") ]

let metrics : (string, float) Hashtbl.t = Hashtbl.create 64
let set name v = Hashtbl.replace metrics name v
let get name = Option.value (Hashtbl.find_opt metrics name) ~default:0.

(* Copy a span's per-call seconds and minor words into its metrics. *)
let set_span ?(scale = 1.) ?(suffix = ".s") name =
  set (name ^ suffix) (span_per_call name *. scale);
  set (name ^ ".minor_words") (span_words name)

(* --- workloads --------------------------------------------------------------- *)

type pass_result = {
  items : int;  (** mask applications, injection points or glitch attempts *)
  verify : unit -> unit;  (** compare the outputs with their frozen values *)
}

type prepared = {
  pass : unit -> pass_result;  (** the campaign calls, and nothing else *)
  spot : Random.State.t -> unit;  (** seeded oracle spot checks *)
  probe : unit -> unit;  (** traced run only: per-layer probes and legs *)
  report : trace:bool -> unit;  (** accuracy and decomposition lines *)
}

(* A rig with [spec]'s memory map, loaded — the shape Exhaust.Campaign
   replays its baseline on. *)
let load_rig (spec : Exhaust.Campaign.spec) =
  let mem = Machine.Memory.create () in
  Machine.Memory.map mem ~addr:spec.flash_base ~size:spec.flash_size;
  List.iter (fun (addr, size) -> Machine.Memory.map mem ~addr ~size) spec.rams;
  Machine.Memory.load_bytes mem ~addr:spec.flash_base spec.code;
  List.iter (fun (addr, v) -> Machine.Memory.write_u32_exn mem addr v) spec.data_init;
  (mem, Machine.Cpu.create ~sp:spec.stack_top ~pc:spec.entry ())

(* Machine.Exec.execute over a recorded pristine trace: replays of
   [steps] from a restored rig, minus the same number of bare restores. *)
let exec_probe (spec : Exhaust.Campaign.spec) (steps : (int * int) array) =
  let mem, cpu = load_rig spec in
  let pristine = Machine.Memory.snapshot mem in
  let decoded = Array.map (fun (_, w) -> Thumb.Decode.table.(w)) steps in
  let reps = max 1 (400_000 / max 1 (Array.length decoded)) in
  let replay execute () =
    for _ = 1 to reps do
      Machine.Memory.restore mem pristine;
      Machine.Cpu.reset ~sp:spec.stack_top ~pc:spec.entry cpu;
      if execute then
        Array.iter (fun i -> ignore (Machine.Exec.execute mem cpu i)) decoded
    done
  in
  let w0 = Gc.minor_words () in
  let (), full = timed (replay true) in
  let words = Gc.minor_words () -. w0 in
  let (), restores = timed (replay false) in
  let calls = reps * Array.length decoded in
  record "machine.exec" ~calls ~seconds:(Float.max 0. (full -. restores)) ~words

(* --- fig2: the Figure 2 mask sweeps ------------------------------------------- *)

let fig2 ~smoke () =
  let open Glitch_emu in
  let branches = List.map Testcase.conditional_branch Thumb.Instr.all_conds in
  let config flip = Campaign.default_config flip in
  let groups =
    [ ("and", config And, branches); ("or", config Or, branches);
      ("and0", { (config And) with zero_is_invalid = true }, branches);
      ("xor", config Xor, branches);
      ("and", config And, Testcase.non_branch_cases);
      ("or", config Or, Testcase.non_branch_cases) ]
  in
  let sweeps =
    List.concat_map
      (fun (group, config, cases) -> List.map (fun case -> (group, config, case)) cases)
      groups
  in
  let sweeps = if smoke then List.filteri (fun i _ -> i mod 16 = 0) sweeps else sweeps in
  let label (group, _, (case : Testcase.t)) = sprintf "fig2/%s/%s" group case.name in
  let last = ref [] in
  let pass () =
    let results =
      List.map
        (fun (_, config, case) ->
          span "glitch_emu.run_case" (fun () -> Campaign.run_case config case))
        sweeps
    in
    last := results;
    { items = List.length sweeps * 65536;
      verify =
        (fun () ->
          List.iter2
            (fun sweep (r : Campaign.result) ->
              check_frozen (label sweep)
                (sprintf "%s executed=%d memoized=%d"
                   (digest
                      (ints
                         (List.concat_map Array.to_list (Array.to_list r.by_weight)
                         @ Array.to_list r.totals)))
                   r.stats.executed r.stats.memoized))
            sweeps results) }
  in
  let spot rng =
    List.iter
      (fun ((_, config, case) as sweep) ->
        let by_mask = Campaign.categories_by_mask config case in
        for _ = 1 to 4 do
          let mask = Random.State.int rng 65536 in
          let oracle = Campaign.run_one config case ~mask in
          check
            (sprintf "%s oracle mask 0x%04x" (label sweep) mask)
            (oracle = by_mask.(mask))
            ~detail:(fun () ->
              sprintf "run_one gives %s, categories_by_mask %s"
                (Campaign.category_name oracle)
                (Campaign.category_name by_mask.(mask)))
        done)
      sweeps
  in
  let probe () =
    let executed, memoized =
      List.fold_left
        (fun (e, m) (r : Campaign.result) -> (e + r.stats.executed, m + r.stats.memoized))
        (0, 0) !last
    in
    set "glitch_emu.executed" (fi executed);
    set "glitch_emu.memoized" (fi memoized);
    set "runtime.store.hit_rate" (ratio (fi memoized) (fi (executed + memoized)));
    let run_case_s = ratio (span_sum "glitch_emu.run_case") (fi !traced_passes) in
    set "glitch_emu.run_case.s" run_case_s;
    set "glitch_emu.run_case.p50_ms" (1e3 *. percentile 0.5 (span_durations "glitch_emu.run_case"));
    set "glitch_emu.run_case.p80_ms" (1e3 *. percentile 0.8 (span_durations "glitch_emu.run_case"));
    set "glitch_emu.run_case.minor_words" (span_words "glitch_emu.run_case");
    set "glitch_emu.us_per_executed" (1e6 *. ratio run_case_s (fi executed));
    List.iter
      (fun (case : Testcase.t) ->
        let spec = Exhaust.Campaign.spec_of_case case in
        exec_probe spec (fst (Exhaust.Campaign.baseline spec (Exhaust.Campaign.default_config ()))))
      (List.sort_uniq compare (List.map (fun (_, _, c) -> c) sweeps));
    set "machine.exec.ns" (1e9 *. span_per_call "machine.exec");
    set "machine.exec.minor_words" (span_words "machine.exec")
  in
  let report ~trace:_ =
    let mean group =
      Report.mean_success_rate
        (List.filter_map
           (fun ((g, _, case), r) -> if g = group && List.memq case branches then Some r else None)
           (List.combine sweeps !last))
    in
    if not smoke then begin
      printf "accuracy: fig2 mean branch-skip rate AND %.1f%% (paper: >60%%), OR %.1f%% (paper: <30%%)\n"
        (mean "and") (mean "or");
      printf "accuracy: the model is validated only against these published figures and Table I\n"
    end
  in
  { pass; spot; probe; report }

(* --- exhaust-guard / exhaust-defended: trace-wide campaigns --------------------- *)

let exhaust ~defended ~smoke () =
  let name = if defended then "exhaust-defended" else "exhaust-guard" in
  let defenses =
    if defended then Resistor.Config.all ~sensitive:[ "a" ] () else Resistor.Config.none
  in
  let compiled =
    span "resistor.compile" (fun () ->
        Resistor.Driver.compile defenses Resistor.Firmware.guard_loop)
  in
  let spec = Exhaust.Campaign.spec_of_image ~name:"guard_loop" compiled.image in
  let base = Exhaust.Campaign.default_config () in
  (* The defended campaign injects over its first 512 cycles only: the
     whole 2048-cycle trace makes a 6-8 s pass, too long to fit between
     the host's load swings (see [setup_batch]), and run-to-run spread of
     the fastest pass reached 35%. *)
  let config =
    if defended then
      { base with static_prune = true; settle_steps = Some 64; cycles = Some (0, 512) }
    else base
  in
  let config = if smoke then { config with cycles = Some (0, 8) } else config in
  let prefix = if smoke then name ^ "/smoke" else name in
  let verify_result ?(context = "") (r : Exhaust.Campaign.result) =
    let checked field v = check_frozen ~context (sprintf "%s/%s" prefix field) v in
    checked "rows"
      (digest
         (String.concat ";"
            (List.map
               (fun (row : Exhaust.Campaign.row) ->
                 sprintf "%s@%d:%s" row.fname row.faddr (ints (Array.to_list row.counts)))
               r.rows)));
    checked "totals" (ints (Array.to_list r.totals));
    checked "points" (string_of_int r.points);
    checked "faulted" (string_of_int r.faulted);
    checked "static_pruned" (string_of_int r.static_pruned);
    checked "states" (string_of_int r.states);
    (* the pruned/executed split is schedule-dependent above one job *)
    if context = "" then begin
      checked "pruned" (string_of_int r.pruned);
      checked "executed" (string_of_int r.executed)
    end
  in
  let last = ref None in
  let pass () =
    let r = span "exhaust.run" (fun () -> Exhaust.Campaign.run spec config) in
    last := Some r;
    { items = r.points; verify = (fun () -> verify_result r) }
  in
  (* the seeded window's unpruned reference run, reused as the emulation probe *)
  let reference = ref None in
  let spot rng =
    let steps, _ = Exhaust.Campaign.baseline spec config in
    let width = 4 in
    let first, last = Option.value config.cycles ~default:(0, Array.length steps) in
    let lo = first + Random.State.int rng (max 1 (min last (Array.length steps) - first - width)) in
    let window = { config with cycles = Some (lo, lo + width); keep_points = true } in
    let pruned = Exhaust.Campaign.run spec window in
    let unpruned, seconds =
      timed (fun () ->
          Exhaust.Campaign.run spec { window with prune = false; static_prune = false })
    in
    reference := Some (unpruned, seconds);
    check
      (sprintf "%s oracle cycles %d-%d" name lo (lo + width))
      (pruned.verdicts = unpruned.verdicts && pruned.totals = unpruned.totals)
      ~detail:(fun () -> "pruned verdicts differ from the prune:false run")
  in
  let probe () =
    let r = Option.get !last in
    set "lower.image_bytes" (fi (2 * Array.length compiled.image.words));
    set_span "resistor.compile";
    let steps = ref [||] in
    for _ = 1 to 3 do
      steps := fst (span "exhaust.baseline" (fun () -> Exhaust.Campaign.baseline spec config))
    done;
    let baseline_s = span_median "exhaust.baseline" in
    set "exhaust.baseline.s" baseline_s;
    set "exhaust.baseline.minor_words" (span_words "exhaust.baseline");
    let run_s = span_per_call "exhaust.run" in
    set_span "exhaust.run";
    let inject_s = run_s -. baseline_s in
    set "exhaust.inject.s" inject_s;
    set "exhaust.points" (fi r.points);
    set "exhaust.faulted" (fi r.faulted);
    set "exhaust.executed" (fi r.executed);
    set "exhaust.pruned" (fi r.pruned);
    set "exhaust.static_pruned" (fi r.static_pruned);
    set "exhaust.states" (fi r.states);
    set "runtime.keymap.hit_rate" (ratio (fi r.pruned) (fi (r.pruned + r.executed)));
    set "absint.prune.share" (ratio (fi r.static_pruned) (fi (r.points - r.faulted)));
    (* Exec, State.key and Keymap on the pristine trace *)
    exec_probe spec !steps;
    set "machine.exec.ns" (1e9 *. span_per_call "machine.exec");
    set "machine.exec.minor_words" (span_words "machine.exec");
    let mem, cpu = load_rig spec in
    let rig = Exhaust.State.seal ~mem ~cpu in
    let repeat = 8 in
    let keys =
      Array.map
        (fun (_, w) ->
          ignore (Machine.Exec.execute mem cpu Thumb.Decode.table.(w));
          let key = ref "" in
          ignore
            (record_batch "exhaust.state.key" ~calls:repeat (fun () ->
                 for _ = 1 to repeat do
                   key := Exhaust.State.key rig
                 done));
          !key)
        !steps
    in
    set_span ~scale:1e9 ~suffix:".ns" "exhaust.state.key";
    set "exhaust.state.key_bytes"
      (ratio (fi (Array.fold_left (fun n k -> n + String.length k) 0 keys)) (fi (Array.length keys)));
    set "exhaust.state.touched_bytes" (fi (Exhaust.State.touched_bytes rig));
    let n = Array.length keys in
    for _ = 1 to 5 do
      let map = Runtime.Keymap.create () in
      ignore
        (record_batch "runtime.keymap.add" ~calls:n (fun () ->
             Array.iter (fun k -> Runtime.Keymap.add map k 0) keys));
      ignore
        (record_batch "runtime.keymap.find" ~calls:n (fun () ->
             Array.iter (fun k -> ignore (Runtime.Keymap.find map k)) keys))
    done;
    set_span ~scale:1e9 ~suffix:".ns" "runtime.keymap.add";
    set_span ~scale:1e9 ~suffix:".ns" "runtime.keymap.find";
    (* emulation cost per continuation, from the unpruned window run *)
    let unpruned, window_s = Option.get !reference in
    let emulate_s = ratio (Float.max 0. (window_s -. baseline_s)) (fi unpruned.executed) in
    set "exhaust.emulate.us" (1e6 *. emulate_s);
    (* the static prover's net effect, and its cost estimated from the
       continuations it spared *)
    let prove_s =
      if not defended then 0.
      else begin
        let off, off_s =
          timed (fun () -> Exhaust.Campaign.run spec { config with static_prune = false })
        in
        check (name ^ " static-off verdict tables")
          (off.rows = r.rows && off.totals = r.totals)
          ~detail:(fun () -> "static pruning changed the verdict tables");
        set "absint.prune.net_s" (off_s -. run_s);
        Float.max 0. (run_s -. off_s +. (fi (off.executed - r.executed) *. emulate_s))
      end
    in
    set "absint.prune.prove_s" prove_s;
    set "exhaust.nonemu.s" (inject_s -. (fi r.executed *. emulate_s) -. prove_s);
    (* diagnostic jobs-2 leg *)
    Runtime.Pool.with_pool ~jobs:2 (fun pool ->
        Runtime.Pool.reset_stats pool;
        let par, par_s = timed (fun () -> Exhaust.Campaign.run ~pool spec config) in
        let stats = Runtime.Pool.stats pool in
        verify_result ~context:" (jobs 2)" par;
        set "runtime.pool.wait_s" (Runtime.Pool.stats_wait ~jobs:2 stats);
        set "runtime.pool.utilization" (Runtime.Pool.stats_utilization ~jobs:2 stats);
        set "exhaust.jobs2_speedup" (ratio run_s par_s))
  in
  let report ~trace =
    if trace && not smoke then begin
      let run_s = get "exhaust.run.s" and inject_s = get "exhaust.inject.s" in
      let r = Option.get !last in
      let emu = fi r.executed *. get "exhaust.emulate.us" *. 1e-6 in
      let keyed = fi (r.pruned + r.executed) in
      printf "decomposition %s (jobs 1): run %.3f s = baseline %.3f s + inject %.3f s\n" name
        run_s (get "exhaust.baseline.s") inject_s;
      printf "  emulation %.3f s of %.3f s inject (%d executed x %.2f us)\n" emu inject_s
        r.executed (get "exhaust.emulate.us");
      printf "  static proving %.3f s of %.3f s inject (estimated; net effect of the prover %.3f s)\n"
        (get "absint.prune.prove_s") inject_s (get "absint.prune.net_s");
      printf "  non-emulation %.3f s of %.3f s inject\n" (get "exhaust.nonemu.s") inject_s;
      printf "    of which key build <= %.3f s and keymap find <= %.3f s (%d keyed points x probe cost)\n"
        (keyed *. get "exhaust.state.key.ns" *. 1e-9)
        (keyed *. get "runtime.keymap.find.ns" *. 1e-9)
        (r.pruned + r.executed);
      printf "  jobs 2: speedup %.2fx of the jobs-1 run, pool wait %.3f worker-s, utilization %.2f\n"
        (get "exhaust.jobs2_speedup") (get "runtime.pool.wait_s")
        (get "runtime.pool.utilization")
    end
  in
  { pass; spot; probe; report }

(* --- tables: Tables I-III on the simulated board ---------------------------------- *)

let tables ~smoke () =
  let guard = Hw.Attack.While_not_a in
  let programs =
    [ (Hw.Attack.single_loop_program guard, 300);
      (Hw.Attack.double_loop_program guard, 500);
      (Hw.Attack.long_glitch_program guard, 800) ]
  in
  (* The tables take only the guard and assemble and boot their programs
     internally, so set-up is the image build alone: assembling the three
     attack programs. *)
  List.iter (fun (src, _) -> ignore (Thumb.Asm.assemble src)) programs;
  let sweep_line (s : Hw.Attack.sweep) =
    sprintf "attempts=%d emulated=%d replayed=%d" s.attempts s.emulated_cycles s.replayed_cycles
  in
  let last = ref [] and table1 = ref None in
  let pass () =
    let t1 = span "hw.table1" (fun () -> Hw.Attack.run_table1 guard) in
    let t2 = if smoke then None else Some (span "hw.table2" (fun () -> Hw.Attack.run_table2 guard)) in
    let t3 = if smoke then None else Some (span "hw.table3" (fun () -> Hw.Attack.run_table3 guard)) in
    let sweeps =
      t1.sweep1
      :: List.filter_map Fun.id
           [ Option.map (fun (t : Hw.Attack.table2) -> t.sweep2) t2;
             Option.map (fun (t : Hw.Attack.table3) -> t.sweep3) t3 ]
    in
    table1 := Some t1;
    last := sweeps;
    let verify () =
      let per_cycle =
        Array.to_list t1.per_cycle
        |> List.map (fun (c : Hw.Attack.cycle_stats) ->
               sprintf "%d/%s" c.successes
                 (String.concat "," (List.map (fun (v, n) -> sprintf "%x:%d" v n) c.values)))
      in
      check_frozen "tables/table1"
        (sprintf "per_cycle=%s per_cycle_attempts=%d %s"
           (digest (String.concat ";" per_cycle))
           t1.attempts_per_cycle (sweep_line t1.sweep1));
      Option.iter
        (fun (t : Hw.Attack.table2) ->
          check_frozen "tables/table2"
            (sprintf "partial=%s full=%s attempts2=%d %s" (ints (Array.to_list t.partial))
               (ints (Array.to_list t.full)) t.attempts2 (sweep_line t.sweep2)))
        t2;
      Option.iter
        (fun (t : Hw.Attack.table3) ->
          check_frozen "tables/table3"
            (sprintf "windows=%s per_window=%d %s"
               (String.concat "," (List.map (fun (c, n) -> sprintf "%d:%d" c n) t.windows))
               t.attempts_per_window (sweep_line t.sweep3)))
        t3
    in
    { items = List.fold_left (fun n (s : Hw.Attack.sweep) -> n + s.attempts) 0 sweeps; verify }
  in
  let spot _rng = () in
  let probe () =
    let sweep = List.fold_left Hw.Attack.sweep_add Hw.Attack.sweep_zero !last in
    set "hw.attempts" (fi sweep.attempts);
    set "hw.emulated_cycles" (fi sweep.emulated_cycles);
    set "hw.replayed_cycles" (fi sweep.replayed_cycles);
    set "hw.replay_rate"
      (ratio (fi sweep.replayed_cycles) (fi (sweep.emulated_cycles + sweep.replayed_cycles)));
    List.iter set_span [ "hw.table1"; "hw.table2"; "hw.table3" ];
    let tables_s = get "hw.table1.s" +. get "hw.table2.s" +. get "hw.table3.s" in
    set "hw.ns_per_emulated_cycle" (1e9 *. ratio tables_s (fi sweep.emulated_cycles));
    (* the three boots a pass performs inside the tables *)
    let boots =
      List.init 3 (fun _ ->
          let w0 = Gc.minor_words () in
          let (), seconds =
            timed (fun () ->
                List.iter
                  (fun (src, max_cycles) -> ignore (Hw.Attack.boot_once ~max_cycles src))
                  programs)
          in
          (seconds, Gc.minor_words () -. w0))
    in
    set "hw.boot.s" (median (List.map fst boots));
    set "hw.boot.minor_words" (median (List.map snd boots) /. 3.);
    (* snapshot restore and single steps on the booted Table I board *)
    let board = Hw.Board.create (Hw.Board.Asm (fst (List.hd programs))) in
    ignore (Hw.Board.run_until_trigger board);
    let snap = Hw.Board.snapshot board in
    let restores = 20_000 in
    ignore
      (record_batch "hw.board.restore" ~calls:restores (fun () ->
           for _ = 1 to restores do
             Hw.Board.restore board snap
           done));
    set_span ~scale:1e6 ~suffix:".us" "hw.board.restore";
    for _ = 1 to 100 do
      Hw.Board.restore board snap;
      ignore
        (record_batch "hw.board.step" ~calls:2000 (fun () ->
             for _ = 1 to 2000 do
               ignore (Hw.Board.step board)
             done))
    done;
    set_span ~scale:1e9 ~suffix:".ns" "hw.board.step";
    (* Exec.execute on the Table I program's pristine trace *)
    let spec =
      { (Exhaust.Campaign.spec_of_case (Glitch_emu.Testcase.conditional_branch Thumb.Instr.EQ)) with
        Exhaust.Campaign.name = "table1";
        code = Thumb.Encode.to_bytes (Thumb.Asm.assemble (fst (List.hd programs)));
        flash_size = 0x20000;
        rams = [ (0x20000000, 0x4000); (Hw.Board.gpio_base, 0x1000) ];
        stack_top = 0x20003FE8 }
    in
    exec_probe spec (fst (Exhaust.Campaign.baseline spec (Exhaust.Campaign.default_config ())));
    set "machine.exec.ns" (1e9 *. span_per_call "machine.exec");
    set "machine.exec.minor_words" (span_words "machine.exec")
  in
  let report ~trace:_ =
    match !table1 with
    | Some t1 when not smoke ->
      let successes = Array.fold_left (fun n (c : Hw.Attack.cycle_stats) -> n + c.successes) 0 t1.per_cycle in
      printf "accuracy: Table I while(!a) success %.3f%% (%d of %d attempts; paper: 0.705%%)\n"
        (100. *. ratio (fi successes) (fi (8 * t1.attempts_per_cycle)))
        successes (8 * t1.attempts_per_cycle)
    | Some _ | None -> ()
  in
  { pass; spot; probe; report }

let workloads =
  [ ("fig2", fig2); ("exhaust-guard", exhaust ~defended:false);
    ("exhaust-defended", exhaust ~defended:true); ("tables", tables) ]

(* --- runs ------------------------------------------------------------------------- *)

(* Host speed is not steady where this benchmark was tuned: on 2 shared
   vCPUs (Xeon, 2.1 GHz, 2 MiB L2, a shared 300 MiB L3) a fixed loop
   swings between two speeds up to 1.7x apart every second or so as
   neighbouring load comes and goes, and a whole run can fall mostly in
   either. A run's median then reports the neighbours; its fastest
   sample reports the program. So wall_s starts from the fastest pass
   and setup_s from the fastest set-up, and a batch of set-ups runs
   before every pass so that set-up, which takes micro- to
   milliseconds, is sampled across the run too. The batch size is fixed
   so the heap history before the first pass, and with it peak_rss_mb,
   is the same in every run.

   Slow spells also last minutes, longer than a run, and then even the
   fastest pass of a run is slow: exhaust-guard's fastest pass read
   1.5 s in one run and 2.45 s in another, and fig2's 0.43 s and 0.79 s.
   So every run also times a fixed calibration loop before each pass,
   and pass and set-up times are scaled by [reference_calibration_s] /
   the run's fastest calibration: they read as host seconds at the speed
   where the loop takes its reference time. Over five runs of each, this
   cut the spread (quartile distance over median) of exhaust-guard's
   fastest pass from 18% to 10%, and fig2's from 6% to 2%. *)
let setup_batch = 21

(* The calibration loop uses no code of the program, so a change to the
   program cannot change its time. It has three parts, because neighbours
   slow them by different amounts and the workloads mix all three:
   - a toy register machine dispatching over a fixed 4096-op program,
     all in L1, which follows the clock;
   - 48-byte keys built as fresh strings, hashed and probed in a 512 KiB
     table, which streams through the minor heap as the campaigns do;
   - dependent random loads and stores over 8 MiB, which the shared L3
     holds only while neighbours leave it room.
   Only the short-lived keys are allocated, and the calibration runs
   right after a compaction, so it neither pays the program's collector
   debts nor leaves any behind. Its tables live outside the OCaml heap
   and are made after the first pass's peak_rss_mb is read. *)
let calibration_program = Array.init 4096 (fun i -> (i * 2654435761) land 7)

let calibration_memory =
  lazy
    (let array n =
       let a = Bigarray.(Array1.create int c_layout n) in
       Bigarray.Array1.fill a 0;
       a
     in
     (array (1 lsl 16), array (1 lsl 20)))

let calibrate () =
  let table, big = Lazy.force calibration_memory in
  let t0 = now () in
  let r = Array.make 8 1 and pc = ref 0 in
  for _ = 1 to 6_000_000 do
    let op = calibration_program.(!pc) in
    (match op with
     | 0 -> r.(0) <- r.(0) + r.(1)
     | 1 -> r.(1) <- r.(1) lxor (r.(2) lsl 1)
     | 2 -> r.(2) <- r.(2) - r.(3)
     | 3 -> r.(3) <- (if r.(3) land 1 = 0 then r.(3) + 7 else r.(3) lsr 1)
     | 4 -> r.(4) <- r.(0) * 3
     | 5 -> r.(5) <- r.(5) + (r.(4) land 0xFF)
     | 6 -> r.(6) <- (if r.(5) > r.(6) then r.(5) else r.(6) + 1)
     | _ -> r.(7) <- r.(7) + 1);
    pc := (!pc + 1 + (r.(op) land 1)) land 4095
  done;
  let key = Bytes.make 48 '\000' and acc = ref r.(0) in
  for i = 1 to 600_000 do
    Bytes.set_uint16_le key (8 + ((i land 7) * 4)) (i land 0xFFFF);
    Bytes.set_uint16_le key 0 ((i * 7919) land 0xFFFF);
    let h = Hashtbl.hash (Bytes.to_string key) land 0xFFFF in
    if table.{h} = i then incr acc else table.{h} <- i
  done;
  let j = ref 12345 in
  for _ = 1 to 6_000_000 do
    j := ((!j * 1103515245) + 12345) land 0xFFFFF;
    acc := !acc + big.{!j};
    big.{!j} <- !acc land 0xFF
  done;
  ignore (Sys.opaque_identity !acc);
  since t0

(* About the fastest calibration on the host above while it was quiet. *)
let reference_calibration_s = 0.078

let set_up make =
  let runs = List.init setup_batch (fun _ -> timed (fun () -> make ~smoke:false ())) in
  (fst (List.hd runs), List.map snd runs)

let fastest = List.fold_left Float.min Float.infinity

let json_metrics names =
  String.concat ","
    (List.map
       (fun (name, unit) -> sprintf {|"%s":{"value":%.17g,"unit":"%s"}|} name (get name) unit)
       names)

let print_result names =
  List.iter (fun (name, unit) -> printf "  %-34s %.6g %s\n" name (get name) unit) names;
  printf {|{"correct":%b,"attempted":%d,"failed":%d,"metrics":{%s}}|} (!failed = 0) !attempted
    !failed (json_metrics names);
  print_newline ()

(* Untraced: set-up batches and passes until the next pass would overrun
   [seconds]. *)
let measure name make ~seed ~seconds =
  let w, setups = set_up make in
  let setups = ref setups in
  w.spot (Random.State.make [| seed |]);
  let walls = ref [] and items = ref 0 and rss = ref 0. and calibrations = ref [] in
  let start = now () in
  let rec loop () =
    if !walls <> [] then setups := snd (set_up make) @ !setups;
    (* every pass starts from a collected heap, not the previous pass's garbage *)
    Gc.compact ();
    if !walls <> [] then calibrations := calibrate () :: !calibrations;
    let result, wall = timed w.pass in
    (* the first pass's high-water mark: later passes only reuse the heap,
       and how many of them fit in the run depends on timing *)
    if !walls = [] then begin
      rss := peak_rss_mb ();
      Gc.compact ();
      calibrations := List.init 4 (fun _ -> calibrate ())
    end;
    result.verify ();
    walls := wall :: !walls;
    items := result.items;
    if since start +. wall <= seconds then loop ()
  in
  loop ();
  let scale = reference_calibration_s /. fastest !calibrations in
  let wall_s = fastest !walls *. scale in
  set "wall_s" wall_s;
  set "items_per_s" (ratio (fi !items) wall_s);
  set "setup_s" (fastest !setups *. scale);
  set "peak_rss_mb" !rss;
  printf "%s: %d pass(es) of %d items (%s s), setup x%d, %d output checks, %d failed\n" name
    (List.length !walls) !items
    (String.concat " " (List.rev_map (sprintf "%.3f") !walls))
    (List.length !setups) !attempted !failed;
  printf "calibration: fastest %.4f s of %d (reference %.4f s), times scaled by %.4f\n"
    (fastest !calibrations) (List.length !calibrations) reference_calibration_s scale;
  w.report ~trace:false;
  print_result end_to_end

(* Traced: untraced and traced passes alternate, then the probes. *)
let traced name make ~seed ~seconds =
  tracing := true;
  let w, _ = set_up make in
  tracing := false;
  w.spot (Random.State.make [| seed |]);
  let plain = ref [] and traced = ref [] and unaccounted = ref [] in
  let gc_major = ref 0 and gc_minor = ref 0. in
  let start = now () in
  let rec loop () =
    Gc.compact ();
    let result, u = timed w.pass in
    result.verify ();
    Gc.compact ();
    let gc0 = Gc.quick_stat () in
    tracing := true;
    span_seconds := 0.;
    let result, t = timed w.pass in
    tracing := false;
    let gc1 = Gc.quick_stat () in
    result.verify ();
    plain := u :: !plain;
    traced := t :: !traced;
    unaccounted := (t -. !span_seconds) :: !unaccounted;
    gc_major := !gc_major + gc1.major_collections - gc0.major_collections;
    gc_minor := !gc_minor +. gc1.minor_words -. gc0.minor_words;
    if since start +. u +. t <= seconds then loop ()
  in
  loop ();
  traced_passes := List.length !traced;
  let passes = fi !traced_passes in
  set "trace.overhead" (ratio (fastest !traced) (fastest !plain));
  set "trace.unaccounted_s" (median !unaccounted);
  set "gc.major_collections" (fi !gc_major /. passes);
  set "gc.minor_mwords" (!gc_minor /. passes /. 1e6);
  tracing := true;
  w.probe ();
  tracing := false;
  set "failed_ratio" (ratio (fi !failed) (fi !attempted));
  printf "%s (traced): %d traced pass(es), %d output checks, %d failed\n" name
    (List.length !traced) !attempted !failed;
  w.report ~trace:true;
  print_result per_layer

let smoke () =
  List.iter
    (fun (name, make) ->
      let before = !failed in
      let w = make ~smoke:true () in
      w.spot (Random.State.make [| 1 |]);
      (w.pass ()).verify ();
      printf "smoke %s: %s\n%!" name (if !failed = before then "ok" else "FAILED"))
    workloads;
  printf "smoke: %d output checks, %d failed\n" !attempted !failed

(* --- command line ------------------------------------------------------------------ *)

let usage () =
  eprintf
    "usage: main.exe --workload (fig2|exhaust-guard|exhaust-defended|tables|all) \
     --seed N --seconds S --trace (0|1)\n\
    \       main.exe --smoke\n";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse acc = function
    | [] -> acc
    | "--smoke" :: rest -> parse (("smoke", "1") :: acc) rest
    | (("--workload" | "--seed" | "--seconds" | "--trace") as flag) :: v :: rest ->
      parse ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
    | _ -> usage ()
  in
  let opts = parse [] args in
  let opt k = List.assoc_opt k opts in
  let int_opt k ~default =
    match opt k with
    | None -> default
    | Some v -> ( match int_of_string_opt v with Some n when n >= 0 -> n | _ -> usage ())
  in
  if opt "smoke" <> None then smoke ()
  else begin
    let seed = int_opt "seed" ~default:1 in
    let seconds = fi (max 1 (int_opt "seconds" ~default:10)) in
    let trace =
      match opt "trace" with None | Some "0" -> false | Some "1" -> true | Some _ -> usage ()
    in
    let selected =
      match opt "workload" with
      | Some "all" -> workloads
      | Some w -> (
        match List.assoc_opt w workloads with Some make -> [ (w, make) ] | None -> usage ())
      | None -> usage ()
    in
    List.iter
      (fun (name, make) ->
        Hashtbl.reset spans;
        Hashtbl.reset metrics;
        attempted := 0;
        failed := 0;
        if trace then traced name make ~seed ~seconds else measure name make ~seed ~seconds;
        if !failed > 0 then exit 1)
      selected
  end;
  if !failed > 0 then exit 1
