open Machine

(* The trace-wide exhaustive fault injector (ARMORY-style): every
   (cycle, fault model, mask) along a firmware execution is an
   injection point. The snapshot-replay idea from the hardware leg
   generalizes: run the pristine baseline once, then at each cycle
   perturb the fetched word, run the consequences, and rewind. Pruning
   lifts the per-word sweep memo to whole-machine states: the verdict
   of a continuation is a pure function of the machine state right
   after the faulted fetch executes (plus the fixed settle budget), so
   identical post-fault states share one continuation through a
   Runtime.Keymap keyed on canonical State keys. *)

(* --- verdicts ----------------------------------------------------------- *)

type verdict =
  | No_effect  (** indistinguishable from the pristine baseline *)
  | Detected  (** the firmware's detection counter fired *)
  | Silent  (** terminated, but with divergent final state *)
  | Hang  (** still running after the settle budget; baseline finished *)
  | Trap
  | Bad_read
  | Bad_write
  | Bad_fetch
  | Invalid  (** the perturbed word faulted at the injected fetch *)

let verdicts =
  [ No_effect; Detected; Silent; Hang; Trap; Bad_read; Bad_write; Bad_fetch;
    Invalid ]

let verdict_name = function
  | No_effect -> "No Effect"
  | Detected -> "Detected"
  | Silent -> "Silent Corruption"
  | Hang -> "Hang"
  | Trap -> "Trap"
  | Bad_read -> "Bad Read"
  | Bad_write -> "Bad Write"
  | Bad_fetch -> "Bad Fetch"
  | Invalid -> "Invalid Instruction"

let verdict_index = function
  | No_effect -> 0
  | Detected -> 1
  | Silent -> 2
  | Hang -> 3
  | Trap -> 4
  | Bad_read -> 5
  | Bad_write -> 6
  | Bad_fetch -> 7
  | Invalid -> 8

(* Verdict tables are 16 wide so a custom classifier (e.g. the Campaign
   category space in the differential tests) fits without resizing. *)
let nverdicts = 16

(* --- targets ------------------------------------------------------------ *)

type spec = {
  name : string;
  code : bytes;  (** flash contents, loaded at [flash_base] *)
  flash_base : int;
  flash_size : int;
  rams : (int * int) list;  (** additional RAM regions: (base, size) *)
  data_init : (int * int) list;  (** word address, initial value *)
  entry : int;
  stack_top : int;
  symbols : (string * int) list;  (** function symbol -> byte address *)
  detect_addr : int option;  (** the firmware's detection counter, if any *)
}

let detect_counter_global = "__gr_detect_count"

let bytes_of_words words =
  let b = Bytes.create (2 * Array.length words) in
  Array.iteri (fun i w -> Bytes.set_uint16_le b (2 * i) (w land 0xFFFF)) words;
  b

(* The full STM32 shape the hardware leg boots: 128K flash, 16K SRAM,
   plus a plain RAM page standing in for the GPIO block so firmware
   calling __trigger_high() stores instead of faulting (a plain page,
   unlike Hw.Board's device, keeps every store journal-visible). *)
let gpio_base = 0x48000000

let spec_of_image ?(name = "image") (image : Lower.Layout.image) =
  { name;
    code = bytes_of_words image.words;
    flash_base = Lower.Layout.text_base;
    flash_size = 0x20000;
    rams = [ (Lower.Layout.sram_base, Lower.Layout.sram_size); (gpio_base, 0x1000) ];
    data_init = image.data_init;
    entry = image.entry;
    stack_top = image.stack_top;
    symbols = image.symbols;
    detect_addr = List.assoc_opt detect_counter_global image.global_addrs }

(* The Campaign-compatible snippet shape: tiny flash and SRAM, stack at
   the top — identical constants to Glitch_emu.Campaign so differential
   tests can compare bit-for-bit. *)
let spec_of_case (case : Glitch_emu.Testcase.t) =
  let flash_base = 0x08000000 and sram_base = 0x20000000 in
  { name = case.name;
    code = Thumb.Encode.to_bytes case.instrs;
    flash_base;
    flash_size = 0x400;
    rams = [ (sram_base, 0x400) ];
    data_init = [];
    entry = flash_base;
    stack_top = sram_base + 0x400 - 16;
    symbols = [ (case.name, flash_base) ];
    detect_addr = None }

let make_rig spec =
  let mem = Memory.create () in
  Memory.map mem ~addr:spec.flash_base ~size:spec.flash_size;
  List.iter (fun (addr, size) -> Memory.map mem ~addr ~size) spec.rams;
  Memory.load_bytes mem ~addr:spec.flash_base spec.code;
  List.iter (fun (addr, v) -> Memory.write_u32_exn mem addr v) spec.data_init;
  let cpu = Cpu.create ~sp:spec.stack_top ~pc:spec.entry () in
  State.seal ~mem ~cpu

(* --- configuration ------------------------------------------------------ *)

type mode = Transient | Persistent

type config = {
  models : Glitch_emu.Fault_model.flip list;
  weights : int list;  (** bit-flip weights per model *)
  mode : mode;
  zero_is_invalid : bool;
  max_trace : int;  (** baseline budget = the injection window *)
  settle_steps : int option;  (** continuation budget; [None] = auto *)
  cycles : (int * int) option;  (** restrict injection to [lo, hi) *)
  classify : (Cpu.t -> Exec.stop -> int) option;
      (** override the built-in taxonomy; must return values in
          [0, nverdicts) and be a pure function of the final machine
          state (it participates in state sharing) *)
  prune : bool;  (** [false] = the unpruned reference oracle *)
  static_prune : bool;
      (** prove continuations statically (Absint.Prune) before running
          or sharing them; transient mode, built-in classifier only *)
  keep_points : bool;  (** retain the per-point verdict array *)
}

let default_config () =
  { models = Glitch_emu.Fault_model.[ And; Or; Xor ];
    weights = [ 1; 2 ];
    mode = Transient;
    zero_is_invalid = false;
    max_trace = 2048;
    settle_steps = None;
    cycles = None;
    classify = None;
    prune = true;
    static_prune = false;
    keep_points = false }

let mode_name = function Transient -> "transient" | Persistent -> "persistent"

(* The per-cycle point list: (model, flipped bit-set, model mask), in a
   fixed order (models, then weights, then bit-sets ascending) shared
   by the verdict array and the counters. For And the mask that flips
   bit-set [s] is its complement (And clears the de-selected bits), so
   weights enumerate actual flip widths uniformly across models. *)
let enum_points config =
  List.concat_map
    (fun model ->
      List.concat_map
        (fun weight ->
          Glitch_emu.Bitmask.of_weight ~width:16 ~weight
          |> List.map (fun bits ->
                 let mask =
                   match model with
                   | Glitch_emu.Fault_model.And -> lnot bits land 0xFFFF
                   | Glitch_emu.Fault_model.Or | Glitch_emu.Fault_model.Xor ->
                     bits
                 in
                 (model, bits, mask)))
        config.weights)
    config.models
  |> Array.of_list

(* --- baseline ----------------------------------------------------------- *)

(* One pristine step: Campaign.run_to_stop's body (fetch through the
   unboxed path and the shared pre-decoded table, optional fetched-zero
   trap), as a single reusable step. *)
let exec_step ~zero_is_invalid mem cpu =
  match Memory.read_u16_exn mem (Cpu.pc cpu) with
  | exception Memory.Fault (Memory.Unmapped a | Memory.Unaligned a) ->
    Exec.Stopped (Exec.Bad_fetch a)
  | 0 when zero_is_invalid -> Exec.Stopped (Exec.Invalid_instruction 0)
  | w -> Exec.execute mem cpu Thumb.Decode.table.(w)

type trace = {
  steps : (int * int) array;  (** (pc, fetched word) per executed cycle *)
  baseline_stop : Exec.stop option;  (** [None]: still running at max_trace *)
  final_key : string;  (** state key at the stop (terminating only) *)
  final_det : int;  (** detection count at the end of the trace *)
  state_keys : string array;  (** key of S_(k+1) after each cycle k *)
  settle : int;
}

let read_det mem = function
  | None -> 0
  | Some a -> ( match Memory.read_u32 mem a with Ok v -> v | Error _ -> 0)

(* Run the pristine baseline once, recording each cycle's (pc, word)
   and the canonical state key after it. The keys seed the shared map
   (below) and anchor the parallel workers' fast-forward. *)
let run_baseline spec config =
  let rig = make_rig spec in
  let mem = State.mem rig and cpu = State.cpu rig in
  let steps = ref [] and keys = ref [] and n = ref 0 in
  let stop = ref None in
  while !n < config.max_trace && !stop = None do
    let pc = Cpu.pc cpu in
    match Memory.read_u16_exn mem pc with
    | exception Memory.Fault (Memory.Unmapped a | Memory.Unaligned a) ->
      stop := Some (Exec.Bad_fetch a)
    | 0 when config.zero_is_invalid ->
      stop := Some (Exec.Invalid_instruction 0)
    | w ->
      steps := (pc, w) :: !steps;
      incr n;
      (match Exec.execute mem cpu Thumb.Decode.table.(w) with
      | Exec.Running -> ()
      | Exec.Stopped s -> stop := Some s);
      keys := State.key rig :: !keys
  done;
  let nsteps = !n in
  let settle =
    match config.settle_steps with
    | Some s -> s
    | None -> (
      match !stop with
      | Some _ -> nsteps + 64  (* enough for any rejoin to finish *)
      | None -> min 2048 config.max_trace)
  in
  ( rig,
    { steps = Array.of_list (List.rev !steps);
      baseline_stop = !stop;
      final_key = (match !stop with Some _ -> State.key rig | None -> "");
      final_det = read_det mem spec.detect_addr;
      state_keys = Array.of_list (List.rev !keys);
      settle } )

(* --- classification ----------------------------------------------------- *)

(* The built-in taxonomy compares the settled continuation against the
   baseline: a crash classifies by its stop; otherwise detection wins;
   otherwise the run is No_effect exactly when it reproduces the
   baseline's behaviour (same stop and same final state for a
   terminating baseline; still running, like the baseline, for a
   non-terminating one). Everything here is a function of the final
   machine state and the per-run constants, which is what state sharing
   requires. *)
let classify_end tr detect_addr classify rig (s : Exec.stop) =
  match classify with
  | Some f -> f (State.cpu rig) s
  | None ->
    verdict_index
      (match s with
      | Exec.Swi_trap _ -> Trap
      | Exec.Bad_read _ -> Bad_read
      | Exec.Bad_write _ -> Bad_write
      | Exec.Bad_fetch _ -> Bad_fetch
      | Exec.Invalid_instruction _ -> Invalid
      | Exec.Breakpoint _ | Exec.Step_limit -> (
        if read_det (State.mem rig) detect_addr > 0 then Detected
        else
          match tr.baseline_stop with
          | Some bs ->
            if Exec.stop_equal s bs && String.equal (State.key rig) tr.final_key
            then No_effect
            else if s = Exec.Step_limit then Hang
            else Silent
          | None -> if s = Exec.Step_limit then No_effect else Silent))

(* Baseline-state seeding: the post-fault state of a do-nothing
   perturbation (and of any perturbation whose damage cancels) is a
   baseline state S_(k+1), whose continuation verdict we already know
   without running it — provided the settle budget provably covers it:
   - terminating baseline: the continuation rejoins and finishes like
     the baseline iff settle >= remaining steps; its verdict is the
     baseline end's own classification;
   - non-terminating baseline: if k+1+settle stays inside the traced
     window the continuation is a baseline replay that is still running
     at its budget, i.e. No_effect — but only for the built-in
     classifier (a custom one would need the state at k+1+settle) and
     only when the baseline never fired a detection. *)
let seed_baseline_states keymap tr detect_addr classify rig =
  let n = Array.length tr.state_keys in
  match tr.baseline_stop with
  | Some s ->
    let v = classify_end tr detect_addr classify rig s in
    for k = 0 to n - 1 do
      if tr.settle >= n - (k + 1) then Runtime.Keymap.add keymap tr.state_keys.(k) v
    done
  | None ->
    if classify = None && tr.final_det = 0 then
      for k = 0 to n - 1 do
        if k + 1 + tr.settle <= n then
          Runtime.Keymap.add keymap tr.state_keys.(k) (verdict_index No_effect)
      done

(* --- results ------------------------------------------------------------ *)

type row = { fname : string; faddr : int; counts : int array }

type result = {
  spec_name : string;
  mode : mode;
  trace_steps : int;
  baseline_stop : Exec.stop option;
  settle : int;
  cycle_lo : int;
  cycle_hi : int;
  points : int;
  faulted : int;  (** stopped at the injected step itself *)
  pruned : int;  (** continuations served by state-equivalence sharing *)
  executed : int;  (** continuations actually run *)
  static_pruned : int;
      (** continuations proven by the abstract fault-flow interpreter *)
  states : int;  (** distinct post-fault states (including seeds) *)
  rows : row list;  (** per-function verdict tables, address order *)
  totals : int array;
  verdicts : Bytes.t option;  (** per-point verdicts when [keep_points] *)
}

let prune_rate r =
  let den = r.pruned + r.executed in
  if den = 0 then 0. else float_of_int r.pruned /. float_of_int den

let baseline spec config =
  let _rig, tr = run_baseline spec config in
  (tr.steps, tr.baseline_stop)

let to_json r =
  let ints a = Json.List (Array.to_list (Array.map (fun n -> Json.Int n) a)) in
  let row_json row =
    Json.Obj
      [ ("fname", Json.String row.fname);
        ("faddr", Json.Int row.faddr);
        ("counts", ints row.counts) ]
  in
  Json.Obj
    [ ("spec", Json.String r.spec_name);
      ("mode", Json.String (mode_name r.mode));
      ("trace_steps", Json.Int r.trace_steps);
      ( "baseline_stop",
        match r.baseline_stop with
        | None -> Json.Null
        | Some s -> Json.String (Fmt.str "%a" Exec.pp_stop s) );
      ("settle", Json.Int r.settle);
      ("cycle_lo", Json.Int r.cycle_lo);
      ("cycle_hi", Json.Int r.cycle_hi);
      ("points", Json.Int r.points);
      ("faulted", Json.Int r.faulted);
      ("pruned", Json.Int r.pruned);
      ("executed", Json.Int r.executed);
      ("static_pruned", Json.Int r.static_pruned);
      ("states", Json.Int r.states);
      ("prune_rate", Json.Float (prune_rate r));
      ( "verdict_names",
        Json.List (List.map (fun v -> Json.String (verdict_name v)) verdicts) );
      ("totals", ints r.totals);
      ("rows", Json.List (List.map row_json r.rows)) ]

let perf ~label ?pool r elapsed_s =
  Stats.Perf.make ~label ?pool ~items:r.points
    (Stats.Perf.split ~rate:"prune_rate" ("executed", r.executed)
       ("pruned", r.pruned)
    @ [ ("static_pruned", Stats.Perf.Count r.static_pruned) ])
    elapsed_s

(* --- the injector ------------------------------------------------------- *)

type shared = {
  spec : spec;
  config : config;
  tr : trace;
  points_per_cycle : (Glitch_emu.Fault_model.flip * int * int) array;
  keymap : Runtime.Keymap.t;
  static_ctx : Absint.Prune.ctx option;
  sym_addrs : int array;  (** ascending *)
  sym_names : string array;
  cycle_lo : int;
  cycle_hi : int;
  verdicts : Bytes.t option;
}

let owner_index sh pc =
  (* nearest symbol at or below pc; 0 when below every symbol *)
  let lo = ref 0 and hi = ref (Array.length sh.sym_addrs) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if sh.sym_addrs.(mid) <= pc then lo := mid + 1 else hi := mid
  done;
  max 0 (!lo - 1)

type tally = {
  by_func : int array array;
  totals : int array;
  mutable faulted : int;
  mutable pruned : int;
  mutable executed : int;
  mutable static_pruned : int;
}

let make_tally sh =
  { by_func =
      Array.init (Array.length sh.sym_addrs) (fun _ -> Array.make nverdicts 0);
    totals = Array.make nverdicts 0;
    faulted = 0;
    pruned = 0;
    executed = 0;
    static_pruned = 0 }

let merge_tally dst src =
  Array.iteri
    (fun f row -> Array.iteri (fun v n -> row.(v) <- row.(v) + n) src.by_func.(f))
    dst.by_func;
  Array.iteri (fun v n -> dst.totals.(v) <- dst.totals.(v) + n) src.totals;
  dst.faulted <- dst.faulted + src.faulted;
  dst.pruned <- dst.pruned + src.pruned;
  dst.executed <- dst.executed + src.executed;
  dst.static_pruned <- dst.static_pruned + src.static_pruned

(* Run the continuation after an injected step until it stops or the
   settle budget runs out. *)
let settle_run ~zero_is_invalid ~settle mem cpu =
  let rec go remaining =
    if remaining = 0 then Exec.Step_limit
    else
      match exec_step ~zero_is_invalid mem cpu with
      | Exec.Running -> go (remaining - 1)
      | Exec.Stopped s -> s
  in
  go settle

(* Process every injection point of one cycle. [rig] must hold the
   baseline state S_k; it is returned in that same state. *)
let run_cycle sh tally rig scratch k =
  let config = sh.config in
  let zero_is_invalid = config.zero_is_invalid in
  let mem = State.mem rig and cpu = State.cpu rig in
  let pc, w = sh.tr.steps.(k) in
  let fidx = owner_index sh pc in
  let frow = tally.by_func.(fidx) in
  let m0 = State.mark rig in
  let flags = State.save_regs rig scratch in
  (* Same cycle + same perturbed word => same post-fault state: a
     per-cycle word table is the cheap front of the state-equivalence
     memo (it never reaches the machine at all). It remembers how the
     first occurrence was served — immediate fault (0), continuation
     (1), or static proof (2) — so the counters stay truthful. *)
  let word_memo : (int, int * int) Hashtbl.t = Hashtbl.create 128 in
  let memo_on = config.prune || config.static_prune in
  let npoints = Array.length sh.points_per_cycle in
  let base_index =
    match sh.verdicts with Some _ -> (k - sh.cycle_lo) * npoints | None -> 0
  in
  for p = 0 to npoints - 1 do
    let model, _bits, mask = sh.points_per_cycle.(p) in
    let w' = Glitch_emu.Fault_model.apply model ~mask w in
    let v =
      match if memo_on then Hashtbl.find_opt word_memo w' else None with
      | Some (v, kind) ->
        (if kind = 1 then tally.pruned <- tally.pruned + 1
         else if kind = 0 then tally.faulted <- tally.faulted + 1
         else tally.static_pruned <- tally.static_pruned + 1);
        v
      | None ->
        (* inject: execute w' in place of the fetched word *)
        let step =
          match config.mode with
          | Transient ->
            if w' = 0 && zero_is_invalid then
              Exec.Stopped (Exec.Invalid_instruction 0)
            else Exec.execute mem cpu Thumb.Decode.table.(w')
          | Persistent ->
            (* write the corruption to flash (journaled), then fetch it
               back: it persists for the continuation *)
            Memory.write_u16_exn mem pc w';
            exec_step ~zero_is_invalid mem cpu
        in
        let v, kind =
          match step with
          | Exec.Stopped s ->
            (* the injected step itself faulted; no continuation *)
            tally.faulted <- tally.faulted + 1;
            (classify_end sh.tr sh.spec.detect_addr config.classify rig s, 0)
          | Exec.Running -> (
            let static_v =
              match sh.static_ctx with
              | Some ctx ->
                Absint.Prune.prove ctx ~cycle:k ~base_key:sh.tr.state_keys.(k)
                  ~fault_key:(State.key rig)
              | None -> None
            in
            match static_v with
            | Some v ->
              tally.static_pruned <- tally.static_pruned + 1;
              (v, 2)
            | None ->
              if config.prune then begin
                let key = State.key rig in
                match Runtime.Keymap.find sh.keymap key with
                | Some v ->
                  tally.pruned <- tally.pruned + 1;
                  (v, 1)
                | None ->
                  let s =
                    settle_run ~zero_is_invalid ~settle:sh.tr.settle mem cpu
                  in
                  let v =
                    classify_end sh.tr sh.spec.detect_addr config.classify rig s
                  in
                  Runtime.Keymap.add sh.keymap key v;
                  tally.executed <- tally.executed + 1;
                  (v, 1)
              end
              else begin
                let s =
                  settle_run ~zero_is_invalid ~settle:sh.tr.settle mem cpu
                in
                tally.executed <- tally.executed + 1;
                ( classify_end sh.tr sh.spec.detect_addr config.classify rig s,
                  1 )
              end)
        in
        State.undo_to rig m0;
        State.restore_regs rig scratch flags;
        if memo_on then Hashtbl.replace word_memo w' (v, kind);
        v
    in
    frow.(v) <- frow.(v) + 1;
    tally.totals.(v) <- tally.totals.(v) + 1;
    match sh.verdicts with
    | Some b -> Bytes.set_uint8 b (base_index + p) v
    | None -> ()
  done

(* Drain a contiguous cycle chunk with a private rig: replay the
   pristine baseline to the chunk start, then alternate inject-and-scan
   with one pristine step. *)
let run_chunk sh tally (lo, hi) =
  let rig = make_rig sh.spec in
  let mem = State.mem rig and cpu = State.cpu rig in
  let scratch = Array.make 16 0 in
  for k = 0 to lo - 1 do
    let _, w = sh.tr.steps.(k) in
    ignore (Exec.execute mem cpu Thumb.Decode.table.(w))
  done;
  for k = lo to hi - 1 do
    run_cycle sh tally rig scratch k;
    let _, w = sh.tr.steps.(k) in
    ignore (Exec.execute mem cpu Thumb.Decode.table.(w))
  done

let run ?pool spec config =
  let rig, tr = run_baseline spec config in
  let nsteps = Array.length tr.steps in
  let cycle_lo, cycle_hi =
    match config.cycles with
    | None -> (0, nsteps)
    | Some (lo, hi) -> (max 0 lo, min nsteps hi)
  in
  let cycle_hi = max cycle_lo cycle_hi in
  let points_per_cycle = enum_points config in
  let npoints = Array.length points_per_cycle in
  let keymap = Runtime.Keymap.create () in
  if config.prune then
    seed_baseline_states keymap tr spec.detect_addr config.classify rig;
  (* The static pre-pruner needs the built-in classifier (it reasons
     about its verdicts) and transient injection (persistent corruption
     invalidates the decoded baseline instructions). *)
  let static_ctx =
    if config.static_prune && config.mode = Transient && config.classify = None
    then
      Some
        (Absint.Prune.create ~steps:tr.steps
           ~terminating:(tr.baseline_stop <> None)
           ~settle:tr.settle
           ~end_verdict:
             (match tr.baseline_stop with
             | Some s -> classify_end tr spec.detect_addr None rig s
             | None -> 0)
           ~no_effect_ok:(tr.final_det = 0)
           ~no_effect_verdict:(verdict_index No_effect) ())
    else None
  in
  let symbols =
    match List.sort (fun (_, a) (_, b) -> compare a b) spec.symbols with
    | [] -> [ (spec.name, spec.flash_base) ]
    | syms -> syms
  in
  let sh =
    { spec;
      config;
      tr;
      points_per_cycle;
      keymap;
      static_ctx;
      sym_addrs = Array.of_list (List.map snd symbols);
      sym_names = Array.of_list (List.map fst symbols);
      cycle_lo;
      cycle_hi;
      verdicts =
        (if config.keep_points then
           Some (Bytes.make ((cycle_hi - cycle_lo) * npoints) '\255')
         else None) }
  in
  let tally = make_tally sh in
  (match pool with
  | Some pool when Runtime.Pool.jobs pool > 1 && cycle_hi > cycle_lo ->
    let q =
      Runtime.Chunk.queue ~lo:cycle_lo ~hi:cycle_hi
        ~jobs:(Runtime.Pool.jobs pool) ()
    in
    let parts =
      Runtime.Pool.map_workers pool (fun _wid ->
          let t = make_tally sh in
          let rec drain () =
            match Runtime.Chunk.take q with
            | None -> ()
            | Some chunk ->
              run_chunk sh t chunk;
              drain ()
          in
          drain ();
          t)
    in
    List.iter (merge_tally tally) parts
  | _ -> if cycle_hi > cycle_lo then run_chunk sh tally (cycle_lo, cycle_hi));
  let rows =
    List.filteri
      (fun i _ -> Array.exists (fun n -> n > 0) tally.by_func.(i))
      (Array.to_list
         (Array.mapi
            (fun i counts ->
              { fname = sh.sym_names.(i); faddr = sh.sym_addrs.(i); counts })
            tally.by_func))
  in
  { spec_name = spec.name;
    mode = config.mode;
    trace_steps = nsteps;
    baseline_stop = tr.baseline_stop;
    settle = tr.settle;
    cycle_lo;
    cycle_hi;
    points = (cycle_hi - cycle_lo) * npoints;
    faulted = tally.faulted;
    pruned = tally.pruned;
    executed = tally.executed;
    static_pruned = tally.static_pruned;
    states = Runtime.Keymap.count keymap;
    rows;
    totals = tally.totals;
    verdicts = sh.verdicts }

(* --- persistence -------------------------------------------------------- *)

let code_version = "exhaust-v2"

let config_key_parts config =
  [ String.concat ","
      (List.map Glitch_emu.Fault_model.name config.models);
    String.concat "," (List.map string_of_int config.weights);
    mode_name config.mode;
    string_of_bool config.zero_is_invalid;
    string_of_int config.max_trace;
    (match config.settle_steps with None -> "auto" | Some s -> string_of_int s);
    (match config.cycles with
    | None -> "full"
    | Some (lo, hi) -> Printf.sprintf "%d-%d" lo hi);
    string_of_bool config.static_prune ]

let cacheable config = config.classify = None && not config.keep_points

let cache_key spec config =
  Cache.key
    ~parts:
      (code_version :: spec.name :: Bytes.to_string spec.code
      :: string_of_int spec.entry :: string_of_int spec.stack_top
      :: (match spec.detect_addr with
         | None -> "nodet"
         | Some a -> string_of_int a)
      :: String.concat ";"
           (List.map
              (fun (a, v) -> Printf.sprintf "%x:%x" a v)
              spec.data_init)
      :: String.concat ";"
           (List.map (fun (s, a) -> Printf.sprintf "%s:%x" s a) spec.symbols)
      :: config_key_parts config)

let stop_code = function
  | None -> "running"
  | Some (Exec.Breakpoint i) -> Printf.sprintf "bkpt:%d" i
  | Some (Exec.Swi_trap i) -> Printf.sprintf "swi:%d" i
  | Some (Exec.Bad_read a) -> Printf.sprintf "badread:%d" a
  | Some (Exec.Bad_write a) -> Printf.sprintf "badwrite:%d" a
  | Some (Exec.Bad_fetch a) -> Printf.sprintf "badfetch:%d" a
  | Some (Exec.Invalid_instruction w) -> Printf.sprintf "invalid:%d" w
  | Some Exec.Step_limit -> "steplimit"

let stop_of_code s =
  match String.split_on_char ':' s with
  | [ "running" ] -> Some None
  | [ "steplimit" ] -> Some (Some Exec.Step_limit)
  | [ tag; n ] -> (
    match (tag, int_of_string_opt n) with
    | _, None -> None
    | "bkpt", Some i -> Some (Some (Exec.Breakpoint i))
    | "swi", Some i -> Some (Some (Exec.Swi_trap i))
    | "badread", Some a -> Some (Some (Exec.Bad_read a))
    | "badwrite", Some a -> Some (Some (Exec.Bad_write a))
    | "badfetch", Some a -> Some (Some (Exec.Bad_fetch a))
    | "invalid", Some w -> Some (Some (Exec.Invalid_instruction w))
    | _ -> None)
  | _ -> None

let counts_line counts =
  String.concat "," (List.map string_of_int (Array.to_list counts))

let counts_of_line line =
  let parts = String.split_on_char ',' line in
  if List.length parts <> nverdicts then None
  else
    let arr = Array.make nverdicts 0 in
    let ok = ref true in
    List.iteri
      (fun i p ->
        match int_of_string_opt p with
        | Some v when v >= 0 -> arr.(i) <- v
        | Some _ | None -> ok := false)
      parts;
    if !ok then Some arr else None

let encode_result r =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "exhaust2 %s %d %d %d %d %d %d %d %d %d %s\n"
       (mode_name r.mode) r.trace_steps r.settle r.cycle_lo r.cycle_hi
       r.points r.faulted r.pruned r.executed r.static_pruned
       (stop_code r.baseline_stop));
  Buffer.add_string b (Printf.sprintf "states %d\n" r.states);
  Buffer.add_string b (Printf.sprintf "totals %s\n" (counts_line r.totals));
  List.iter
    (fun row ->
      Buffer.add_string b
        (Printf.sprintf "func %s %d %s\n" row.fname row.faddr
           (counts_line row.counts)))
    r.rows;
  Buffer.contents b

(* Decode and re-validate a cached payload: malformed or inconsistent
   data (counter identity, totals = sum of rows) is a miss, never an
   exception — same contract as the service codec. *)
let decode_result (spec : spec) (config : config) payload =
  let ( let* ) = Option.bind in
  match String.split_on_char '\n' payload with
  | header :: states_line :: totals_line :: rest -> (
    match String.split_on_char ' ' header with
    | [ "exhaust2"; mode; steps; settle; lo; hi; points; faulted; pruned;
        executed; static_pruned; stop ] -> (
      let num = int_of_string_opt in
      let* steps = num steps in
      let* settle = num settle in
      let* lo = num lo in
      let* hi = num hi in
      let* points = num points in
      let* faulted = num faulted in
      let* pruned = num pruned in
      let* executed = num executed in
      let* static_pruned = num static_pruned in
      let* baseline_stop = stop_of_code stop in
      let* () =
        if mode = mode_name config.mode then Some () else None
      in
      let* () =
        if faulted + pruned + executed + static_pruned = points then Some ()
        else None
      in
      let* states =
        match String.split_on_char ' ' states_line with
        | [ "states"; n ] -> num n
        | _ -> None
      in
      let* totals =
        match String.split_on_char ' ' totals_line with
        | [ "totals"; line ] -> counts_of_line line
        | _ -> None
      in
      let* rows =
        List.fold_left
          (fun acc line ->
            let* acc = acc in
            if line = "" then Some acc
            else
              match String.split_on_char ' ' line with
              | [ "func"; fname; faddr; counts ] ->
                let* faddr = num faddr in
                let* counts = counts_of_line counts in
                Some ({ fname; faddr; counts } :: acc)
              | _ -> None)
          (Some []) rest
      in
      let rows = List.rev rows in
      let sum = Array.make nverdicts 0 in
      List.iter
        (fun row -> Array.iteri (fun i n -> sum.(i) <- sum.(i) + n) row.counts)
        rows;
      let* () = if sum = totals then Some () else None in
      let* () =
        if Array.fold_left ( + ) 0 totals = points then Some () else None
      in
      Some
        { spec_name = spec.name;
          mode = config.mode;
          trace_steps = steps;
          baseline_stop;
          settle;
          cycle_lo = lo;
          cycle_hi = hi;
          points;
          faulted;
          pruned = pruned + executed;  (* a cached result re-executes nothing *)
          executed = 0;
          static_pruned;
          states;
          rows;
          totals;
          verdicts = None })
    | _ -> None)
  | _ -> None

let run_cached ?pool ?cache spec config =
  match cache with
  | Some cache when cacheable config -> (
    let key = cache_key spec config in
    match Option.bind (Cache.load cache ~key) (decode_result spec config) with
    | Some r -> (r, true)
    | None ->
      let r = run ?pool spec config in
      Cache.store cache ~key (encode_result r);
      (r, false))
  | _ -> (run ?pool spec config, false)
