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

(* The full STM32 shape the hardware leg boots: 128K flash, 16K SRAM,
   plus a plain RAM page standing in for the GPIO block so firmware
   calling __trigger_high() stores instead of faulting (a plain page,
   unlike Hw.Board's device, keeps every store journal-visible). *)
let spec_of_image ?(name = "image") (image : Lower.Layout.image) =
  let l = Loader.stm32_layout in
  let gpio_page = Lower.Codegen.gpio_trigger_address land lnot 0xFFF in
  { name;
    code = Lower.Layout.text_bytes image;
    flash_base = l.flash_base;
    flash_size = l.flash_size;
    rams = [ (l.sram_base, l.sram_size); (gpio_page, 0x1000) ];
    data_init = image.data_init;
    entry = image.entry;
    stack_top = image.stack_top;
    symbols = image.symbols;
    detect_addr = List.assoc_opt detect_counter_global image.global_addrs }

(* Glitch_emu.Campaign's rig: the same snippet layout, so differential
   tests can compare bit-for-bit. *)
let spec_of_case (case : Glitch_emu.Testcase.t) =
  let l = Loader.snippet_layout in
  { name = case.name;
    code = Thumb.Encode.to_bytes case.instrs;
    flash_base = l.flash_base;
    flash_size = l.flash_size;
    rams = [ (l.sram_base, l.sram_size) ];
    data_init = [];
    entry = l.flash_base;
    stack_top = l.stack_top;
    symbols = [ (case.name, l.flash_base) ];
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

(* The per-cycle points: (model, flipped bit-set, model mask), visited
   in a fixed order (models, then weights, then bit-sets ascending)
   shared by the verdict array and the counters. Weights count flipped
   bits under every model (Fault_model.mask_of_bits). *)
let iter_points config f =
  List.iter
    (fun model ->
      List.iter
        (fun weight ->
          Glitch_emu.Bitmask.iter_of_weight ~width:16 ~weight (fun bits ->
              f model bits
                (Glitch_emu.Fault_model.mask_of_bits model ~width:16 bits)))
        config.weights)
    config.models

let count_points config =
  List.length config.models
  * List.fold_left
      (fun n weight -> n + Glitch_emu.Bitmask.choose 16 weight)
      0 config.weights

let enum_points config =
  let points = Array.make (count_points config) (Glitch_emu.Fault_model.And, 0, 0) in
  let i = ref 0 in
  iter_points config (fun model bits mask ->
      points.(!i) <- (model, bits, mask);
      incr i);
  points

(* --- baseline ----------------------------------------------------------- *)

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
   (below) and anchor the parallel workers' fast-forward. A word the
   zero rule refuses stops the trace before its cycle, like a bad
   fetch. *)
let run_baseline spec config =
  let rig = make_rig spec in
  let mem = State.mem rig and cpu = State.cpu rig in
  let steps = ref [] and keys = ref [] and n = ref 0 in
  let stop = ref None in
  while !n < config.max_trace && !stop = None do
    let pc = Exec.pc cpu in
    match Memory.fetch_u16_exn mem pc with
    | exception Memory.Fault (Memory.Unmapped a | Memory.Unaligned a) ->
      stop := Some (Exec.Bad_fetch a)
    | w -> (
      match Exec.decode ~zero_is_invalid:config.zero_is_invalid w with
      | Thumb.Instr.Undefined 0 -> stop := Some (Exec.Invalid_instruction 0)
      | i ->
        steps := (pc, w) :: !steps;
        incr n;
        (match Exec.execute mem cpu i with
        | Exec.Running -> ()
        | Exec.Stopped s -> stop := Some s);
        keys := State.key rig :: !keys)
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
     only when the baseline never fired a detection.
   The seeded cycles form one span [lo, hi) of the trace; this returns
   it with the seeds' verdict. *)
let seed_span tr detect_addr classify rig =
  let n = Array.length tr.state_keys in
  match tr.baseline_stop with
  | Some s ->
    (max 0 (n - 1 - tr.settle), n, classify_end tr detect_addr classify rig s)
  | None ->
    if classify = None && tr.final_det = 0 then
      (0, max 0 (n - tr.settle), verdict_index No_effect)
    else (0, 0, 0)

(* --- cycle sharing ------------------------------------------------------ *)

(* A cycle's whole verdict row is a pure function of its pre-fault
   state S_k: each point's post-fault state is a function of S_k and
   the point, and its verdict a function of the post-fault state (the
   keymap's contract). So a cycle whose S_k equals an earlier cycle's
   is injected once, at its first occurrence, which counts for all of
   them. The key of S_k (k >= 1) is the one the baseline recorded
   after cycle k - 1; S_0 has none recorded and stays distinct. The
   static prover is told the cycle (Absint.Prune.prove ~cycle), and
   the unpruned oracle shares nothing by definition, so both inject
   every cycle.

   Returns, for each cycle k of the window [lo, hi) at index k - lo,
   the first window cycle with its pre-fault state; the distinct
   cycles, ascending; and for each of those the number of window cycles
   it stands for. *)
let share_cycles tr ~share lo hi =
  let seen = Hashtbl.create 64 in
  let first =
    Array.init (hi - lo) (fun i ->
        let k = lo + i in
        if share && k >= 1 then begin
          let key = tr.state_keys.(k - 1) in
          match Hashtbl.find_opt seen key with
          | Some j -> j
          | None ->
            Hashtbl.add seen key k;
            k
        end
        else k)
  in
  let count = Array.make (hi - lo) 0 in
  Array.iter (fun j -> count.(j - lo) <- count.(j - lo) + 1) first;
  let distinct =
    List.init (hi - lo) (( + ) lo) |> List.filter (fun k -> count.(k - lo) > 0)
    |> Array.of_list
  in
  (first, distinct, Array.map (fun k -> count.(k - lo)) distinct)

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
  point_models : Glitch_emu.Fault_model.flip array;  (** per point, in order *)
  point_masks : int array;
  keymap : Runtime.Keymap.t;
  static_ctx : Absint.Prune.ctx option;
  sym_addrs : int array;  (** ascending *)
  sym_names : string array;
  cycle_lo : int;
  cycle_hi : int;
  distinct : int array;  (** the cycles injected at, ascending *)
  weights : int array;  (** window cycles each distinct cycle counts for *)
  verdicts : Bytes.t option;
  zero_rule : bool option;  (** Exec's options, boxed once *)
  settle_budget : int option;
}

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

(* Same cycle + same perturbed word => same post-fault state: a
   per-cycle word memo is the cheap front of the state-equivalence memo
   (it never reaches the machine at all). Each chunk owns one flat
   open-addressing table, sized from the points per cycle (at most
   half full even if every point's word is distinct). A slot's key is
   [stamp lsl 16 lor word], and the stamp goes up once per cycle, so a
   slot stamped by an earlier cycle reads as empty and a new cycle
   clears nothing. A value packs [verdict lsl 2 lor kind], where kind
   records how the first occurrence was served — immediate fault (0),
   continuation (1) or static proof (2) — so the counters stay
   truthful. *)
type word_memo = {
  keys : int array;  (** -1, or [stamp lsl 16 lor word] *)
  vals : int array;
  slot_mask : int;
  mutable stamp : int;
}

let make_word_memo npoints =
  let distinct = min npoints 0x10000 in
  let size = ref 16 in
  while !size < 2 * distinct do
    size := 2 * !size
  done;
  { keys = Array.make !size (-1); vals = Array.make !size 0;
    slot_mask = !size - 1; stamp = 0 }

(* The slot holding [key] in the current cycle, or the free slot where
   it belongs (the sizing leaves one). *)
let rec memo_slot m key i =
  let k = m.keys.(i) in
  if k = key || k < m.stamp lsl 16 then i
  else memo_slot m key ((i + 1) land m.slot_mask)

let kind_fault = 0
let kind_continuation = 1
let kind_static = 2

(* Process every injection point of one cycle, booking each verdict for
   the [m] window cycles that share its pre-fault state: a repeat's
   point faults like the first occurrence's, and every continuation it
   would start is in the keymap by then, so it books as pruned. [rig]
   must hold the baseline state S_k; it is returned in that same
   state. *)
let run_cycle sh tally rig memo scratch k m =
  let config = sh.config in
  let zero_is_invalid = config.zero_is_invalid in
  let mem = State.mem rig and cpu = State.cpu rig in
  let pc, w = sh.tr.steps.(k) in
  (* the nearest symbol at or below pc; the first when below them all *)
  let fidx = max 0 (Lower.Layout.owner_index sh.sym_addrs pc) in
  let frow = tally.by_func.(fidx) in
  let m0 = State.mark rig in
  let flags = State.save_regs rig scratch in
  memo.stamp <- memo.stamp + 1;
  let stamp_bits = memo.stamp lsl 16 in
  let memo_on = config.prune || config.static_prune in
  let keyed = config.prune || sh.static_ctx <> None in
  let npoints = Array.length sh.point_masks in
  let base_index =
    match sh.verdicts with Some _ -> (k - sh.cycle_lo) * npoints | None -> 0
  in
  for p = 0 to npoints - 1 do
    let w' =
      Glitch_emu.Fault_model.apply sh.point_models.(p) ~mask:sh.point_masks.(p) w
    in
    let key = stamp_bits lor w' in
    let slot =
      if memo_on then
        memo_slot memo key (((w' * 0x9E3779B1) lsr 16) land memo.slot_mask)
      else -1
    in
    let packed =
      if slot >= 0 && memo.keys.(slot) = key then begin
        let packed = memo.vals.(slot) in
        let kind = packed land 3 in
        if kind = kind_continuation then tally.pruned <- tally.pruned + m
        else if kind = kind_fault then tally.faulted <- tally.faulted + m
        else tally.static_pruned <- tally.static_pruned + m;
        packed
      end
      else begin
        (* inject: execute w' in place of the fetched word *)
        let step =
          match config.mode with
          | Transient -> Exec.execute mem cpu (Exec.decode ~zero_is_invalid w')
          | Persistent ->
            (* write the corruption to flash (journaled), then fetch it
               back: it persists for the continuation *)
            Memory.write_u16_exn mem pc w';
            Exec.step ?zero_is_invalid:sh.zero_rule mem cpu
        in
        let packed =
          match step with
          | Exec.Stopped s ->
            (* the injected step itself faulted; no continuation *)
            tally.faulted <- tally.faulted + m;
            (classify_end sh.tr sh.spec.detect_addr config.classify rig s lsl 2)
            lor kind_fault
          | Exec.Running -> (
            (* one key per point, built in the rig's buffer: the prover
               and the keymap read the same bytes *)
            let len = if keyed then State.build_key rig else 0 in
            let static_v =
              match sh.static_ctx with
              | Some ctx ->
                Absint.Prune.prove ctx ~cycle:k ~base_key:sh.tr.state_keys.(k)
                  ~fault_key:(State.key_buffer rig) ~fault_len:len
              | None -> None
            in
            match static_v with
            | Some v ->
              tally.static_pruned <- tally.static_pruned + m;
              (v lsl 2) lor kind_static
            | None ->
              let shared =
                if config.prune then
                  Runtime.Keymap.find_prefix sh.keymap (State.key_buffer rig) len
                else -1
              in
              if shared >= 0 then begin
                tally.pruned <- tally.pruned + m;
                (shared lsl 2) lor kind_continuation
              end
              else begin
                (* copied out before the continuation runs: classifying
                   its end may build another key in the same buffer *)
                let state_key =
                  if config.prune then Bytes.sub_string (State.key_buffer rig) 0 len
                  else ""
                in
                (* the oracle ([prune = false]) runs every budget out;
                   the cutoff ends it at a state recurrence, exactly *)
                let s =
                  if config.prune then
                    State.run_cutoff ?zero_is_invalid:sh.zero_rule
                      ~max_steps:sh.tr.settle rig
                  else
                    Exec.run ?zero_is_invalid:sh.zero_rule
                      ?max_steps:sh.settle_budget mem cpu
                in
                let v = classify_end sh.tr sh.spec.detect_addr config.classify rig s in
                if config.prune then Runtime.Keymap.add sh.keymap state_key v;
                tally.executed <- tally.executed + 1;
                tally.pruned <- tally.pruned + m - 1;
                (v lsl 2) lor kind_continuation
              end)
        in
        State.undo_to rig m0;
        State.restore_regs rig scratch flags;
        if slot >= 0 then begin
          memo.keys.(slot) <- key;
          memo.vals.(slot) <- packed
        end;
        packed
      end
    in
    let v = packed lsr 2 in
    frow.(v) <- frow.(v) + m;
    tally.totals.(v) <- tally.totals.(v) + m;
    match sh.verdicts with
    | Some b -> Bytes.set_uint8 b (base_index + p) v
    | None -> ()
  done

(* Drain the distinct cycles [sh.distinct.(a .. b-1)] with a private rig
   and word memo: replay the pristine baseline to each one in turn and
   inject there. *)
let run_chunk sh tally a b =
  let rig = make_rig sh.spec in
  let mem = State.mem rig and cpu = State.cpu rig in
  let memo = make_word_memo (Array.length sh.point_masks) in
  let scratch = Array.make 16 0 in
  let at = ref 0 in
  for i = a to b - 1 do
    let k = sh.distinct.(i) in
    for c = !at to k - 1 do
      let _, w = sh.tr.steps.(c) in
      ignore (Exec.execute mem cpu Thumb.Decode.table.(w))
    done;
    at := k;
    run_cycle sh tally rig memo scratch k sh.weights.(i)
  done

(* The static pre-pruner needs the built-in classifier (it reasons about
   its verdicts) and transient injection (persistent corruption
   invalidates the decoded baseline instructions). *)
let static_active config =
  config.static_prune && config.mode = Transient && config.classify = None

(* The injection window [lo, hi) and its cycle sharing. *)
let share_window config tr =
  let nsteps = Array.length tr.steps in
  let lo, hi =
    match config.cycles with
    | None -> (0, nsteps)
    | Some (lo, hi) -> (max 0 lo, min nsteps hi)
  in
  let hi = max lo hi in
  let share = config.prune && not (static_active config) in
  (lo, hi, share_cycles tr ~share lo hi)

let distinct_cycles spec config =
  let _rig, tr = run_baseline spec config in
  let _, _, (_, distinct, _) = share_window config tr in
  Array.length distinct

let run ?pool spec config =
  if config.max_trace < 1 then invalid_arg "Exhaust.Campaign.run: max_trace < 1";
  if Option.fold ~none:false ~some:(fun s -> s < 0) config.settle_steps then
    invalid_arg "Exhaust.Campaign.run: settle_steps < 0";
  let rig, tr = run_baseline spec config in
  let nsteps = Array.length tr.steps in
  let cycle_lo, cycle_hi, (first, distinct, weights) = share_window config tr in
  let npoints = count_points config in
  let point_models = Array.make npoints Glitch_emu.Fault_model.And in
  let point_masks = Array.make npoints 0 in
  let i = ref 0 in
  iter_points config (fun model _bits mask ->
      point_models.(!i) <- model;
      point_masks.(!i) <- mask;
      incr i);
  let seed_lo, seed_hi, seed_v =
    if config.prune then seed_span tr spec.detect_addr config.classify rig
    else (0, 0, 0)
  in
  (* at most half full if every seed and every injected point adds a
     state; the default 65,536 slots at most *)
  let keymap =
    Runtime.Keymap.create
      ~slots:
        (max 1
           (min 0x10000
              (2 * (seed_hi - seed_lo + (Array.length distinct * npoints)))))
      ()
  in
  for k = seed_lo to seed_hi - 1 do
    Runtime.Keymap.add keymap tr.state_keys.(k) seed_v
  done;
  let static_ctx =
    if static_active config then
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
      point_models;
      point_masks;
      keymap;
      static_ctx;
      sym_addrs = Array.of_list (List.map snd symbols);
      sym_names = Array.of_list (List.map fst symbols);
      cycle_lo;
      cycle_hi;
      distinct;
      weights;
      verdicts =
        (if config.keep_points then
           Some (Bytes.make ((cycle_hi - cycle_lo) * npoints) '\255')
         else None);
      zero_rule = Some config.zero_is_invalid;
      settle_budget = Some tr.settle }
  in
  (* a lone worker drains every distinct cycle as one chunk: one rig,
     one pass over the baseline *)
  let tally = make_tally sh in
  List.iter (merge_tally tally)
    (Runtime.Pool.drain ?pool ~lo:0 ~hi:(Array.length distinct)
       ~init:(fun () -> make_tally sh)
       (run_chunk sh));
  (* a repeated cycle's verdicts are its first occurrence's *)
  Option.iter
    (fun b ->
      Array.iteri
        (fun i j ->
          if j <> cycle_lo + i then
            Bytes.blit b ((j - cycle_lo) * npoints) b (i * npoints) npoints)
        first)
    sh.verdicts;
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

(* [Some] of every element's image, or [None] if [f] rejects any. *)
let all f l =
  let images = List.filter_map f l in
  if List.compare_lengths images l = 0 then Some images else None

(* The inverse of [to_json] on an intact report. It re-validates what a
   digest-valid payload from a buggy producer could still get wrong:
   counts are non-negative and [nverdicts] wide, faulted + pruned +
   executed + static_pruned = points, the rows sum to points, and
   re-encoding with the totals re-derived from the rows reproduces the
   payload exactly (so wrong totals, or a missing, extra or reordered
   field, are rejected). *)
let of_json j =
  let field name = Json.member name j in
  let count = function Json.Int n when n >= 0 -> Some n | _ -> None in
  let row rj =
    match Json.(member "fname" rj, member "faddr" rj, member "counts" rj) with
    | Some (Json.String fname), Some (Json.Int faddr), Some (Json.List l)
      when List.length l = nverdicts ->
      Option.map (fun c -> { fname; faddr; counts = Array.of_list c }) (all count l)
    | _ -> None
  in
  let baseline_stop =
    match field "baseline_stop" with
    | Some Json.Null -> Some None
    | Some (Json.String s) -> Option.map Option.some (Exec.stop_of_string s)
    | _ -> None
  in
  match
    ( field "spec",
      List.find_opt
        (fun m -> field "mode" = Some (Json.String (mode_name m)))
        [ Transient; Persistent ],
      baseline_stop,
      (match field "rows" with Some (Json.List l) -> all row l | _ -> None),
      List.map
        (fun name -> Option.bind (field name) count)
        [ "trace_steps"; "settle"; "cycle_lo"; "cycle_hi"; "points"; "faulted";
          "pruned"; "executed"; "static_pruned"; "states" ] )
  with
  | ( Some (Json.String spec_name), Some mode, Some baseline_stop, Some rows,
      [ Some trace_steps; Some settle; Some cycle_lo; Some cycle_hi; Some points;
        Some faulted; Some pruned; Some executed; Some static_pruned;
        Some states ] ) ->
    let totals = Array.make nverdicts 0 in
    List.iter
      (fun row -> Array.iteri (fun i n -> totals.(i) <- totals.(i) + n) row.counts)
      rows;
    let r =
      { spec_name; mode; trace_steps; baseline_stop; settle; cycle_lo;
        cycle_hi; points; faulted; pruned; executed; static_pruned; states;
        rows; totals; verdicts = None }
    in
    if
      faulted + pruned + executed + static_pruned = points
      && Array.fold_left ( + ) 0 totals = points
      && to_json r = j
    then Some { r with pruned = pruned + executed; executed = 0 }
    else None
  | _ -> None

(* Every input of [run] that can change a cacheable result. The record
   patterns are exhaustive, so a new spec or config field does not
   compile until it is described here or explicitly ignored. *)
let cache_inputs
    ({ name; code; flash_base; flash_size; rams; data_init; entry; stack_top;
       symbols; detect_addr } :
      spec)
    ({ models; weights; mode; zero_is_invalid; max_trace; settle_steps; cycles;
       classify = _; prune; static_prune; keep_points = _ } :
      config) =
  let int n = Json.Int n and str s = Json.String s and bool b = Json.Bool b in
  let list f l = Json.List (List.map f l) in
  let pair f g (a, b) = Json.List [ f a; g b ] in
  let opt f = Option.fold ~none:Json.Null ~some:f in
  Json.List
    [ str "exhaust"; str name; str (Bytes.to_string code); int flash_base;
      int flash_size; list (pair int int) rams; list (pair int int) data_init;
      int entry; int stack_top; list (pair str int) symbols;
      opt int detect_addr;
      list (fun m -> str (Glitch_emu.Fault_model.name m)) models;
      list int weights; str (mode_name mode); bool zero_is_invalid;
      int max_trace; opt int settle_steps; opt (pair int int) cycles;
      bool prune; bool static_prune ]

(* A custom classifier cannot be described by a key, and retained
   per-point verdicts are not part of the report: neither is cached. *)
let run_cached ?pool ?cache spec config =
  let cache =
    if config.classify = None && not config.keep_points then cache else None
  in
  Cache.memo cache
    ~key:(Cache.key (cache_inputs spec config))
    ~of_json:(fun j ->
      match of_json j with
      | Some r when r.mode = config.mode -> Some r
      | Some _ | None -> None)
    ~to_json
    (fun () -> run ?pool spec config)
